package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"sort"

	"dmt/internal/sim"
)

// digest reduces a Result to a hash of its exact fields. The walk histogram
// enters through Count/Sum/Min/Max only, so a change of bucket layout does
// not move the digest while any change in what was simulated does.
func digest(r *sim.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "ops=%d tlb_misses=%d walks=%d walk_cycles=%d seq_refs=%d total_refs=%d data_cycles=%d\n",
		r.Ops, r.TLBMisses, r.Walks, r.WalkCycles, r.SeqRefs, r.TotalRefs, r.DataCycles)
	fmt.Fprintf(h, "fallbacks=%d coverage=%x\n", r.Fallbacks, math.Float64bits(r.Coverage))
	fmt.Fprintf(h, "faults=%d+%d demand=%d checked=%d mismatches=%d\n",
		r.FaultsApplied, r.FaultsSkipped, r.DemandFaults, r.Checked, r.Mismatches)
	if r.WalkHist != nil {
		fmt.Fprintf(h, "hist=%d/%d/%d/%d\n", r.WalkHist.Count, r.WalkHist.Sum, r.WalkHist.Min, r.WalkHist.Max)
	}
	for _, k := range r.Counters.Names() {
		fmt.Fprintf(h, "%s=%d\n", k, r.Counters[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// combine folds several digests (one cell's fault plans) into one.
func combine(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintln(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// expectedSeed is the seed whose digests are kept in the expected file.
const expectedSeed = 11

// expectedFile maps a run profile (workload and size) to its per-cell
// digests.
type expectedFile map[string]map[string]string

func loadExpected(path string) (expectedFile, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return expectedFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var e expectedFile
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

func (e expectedFile) save(path string) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// mismatches lists the cells of got whose digest differs from want's,
// including cells want does not know. Cells missing from got failed before
// they produced a digest and are already counted.
func mismatches(want, got map[string]string) []string {
	var bad []string
	for cell, d := range got {
		if want[cell] != d {
			bad = append(bad, cell)
		}
	}
	sort.Strings(bad)
	return bad
}
