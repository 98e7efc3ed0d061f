package kernel_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/phys"
	"dmt/internal/tea"
)

// populatePerPage is Populate as a plain per-page loop: the THP strides,
// then one Lookup and, for an absent page, one Touch per 4 KiB page. It is
// the reference the leaf-cursor sweep must match exactly.
func populatePerPage(as *kernel.AddressSpace, v *kernel.VMA) error {
	if as.THPEnabled() {
		for va := mem.AlignUp(v.Start, mem.PageBytes2M); va+mem.PageBytes2M <= v.End; va += mem.PageBytes2M {
			if _, err := as.Touch(va, true); err != nil {
				return err
			}
		}
	}
	for va := v.Start; va < v.End; va += mem.PageBytes4K {
		if _, _, ok := as.PT.Lookup(va); ok {
			continue
		}
		if _, err := as.Touch(va, true); err != nil {
			return err
		}
	}
	return nil
}

// populateCase is one machine state to populate. Every field feeds a
// deterministic builder, so two builds from the same case are identical.
type populateCase struct {
	THP      bool
	DMT      bool  // a TEA manager places the leaf nodes
	Fragment bool  // phys.Fragment the allocator before mapping
	Frames   int   // allocator size; small values run out mid-populate
	StartPg  int   // VMA start, in pages past a 1 GiB base
	Pages    int   // VMA length in pages
	Neighbor bool  // a populated VMA shares the VMA's first 2 MiB span
	Seed     int64 // drives the pre-populate perturbation below
	Touches  int   // pages touched before Populate
	Splits   int   // 2 MiB pages faulted in and split before Populate
	Unmaps   int   // pages unmapped before Populate
}

const populateBase = mem.VAddr(1 << 30)

type populateEnv struct {
	pa   *phys.Allocator
	as   *kernel.AddressSpace
	vmas []*kernel.VMA // the VMA to populate last
}

func buildPopulateCase(tb testing.TB, c populateCase) *populateEnv {
	tb.Helper()
	pa := phys.New(0, c.Frames)
	rng := rand.New(rand.NewSource(c.Seed))
	if c.Fragment {
		pa.Fragment(rng, 9, 0.99)
	}
	as, err := kernel.NewAddressSpace(pa, kernel.Config{THP: c.THP})
	if err != nil {
		tb.Fatal(err)
	}
	if c.DMT {
		as.SetHooks(tea.NewManager(as, tea.NewPhysBackend(pa), tea.DefaultConfig(c.THP)))
	}
	e := &populateEnv{pa: pa, as: as}
	start := populateBase + mem.VAddr(c.StartPg)<<mem.PageShift4K
	if c.Neighbor && c.StartPg > 0 {
		// The neighbour ends where the VMA starts, inside the same 2 MiB
		// span, so the VMA's first span already has a level-1 node.
		nb, err := as.MMap(populateBase, uint64(c.StartPg)<<mem.PageShift4K, kernel.VMAAnon, "neighbor")
		if err != nil {
			tb.Fatal(err)
		}
		e.vmas = append(e.vmas, nb)
		_ = populatePerPage(as, nb)
	}
	v, err := as.MMap(start, uint64(c.Pages)<<mem.PageShift4K, kernel.VMAHeap, "heap")
	if err != nil {
		tb.Fatal(err)
	}
	e.vmas = append(e.vmas, v)
	page := func() mem.VAddr { return v.Start + mem.VAddr(rng.Intn(c.Pages))<<mem.PageShift4K }
	// Perturbation errors (ENOMEM, nothing to split or unmap) are part of
	// the state: both builds hit them identically.
	for i := 0; i < c.Splits; i++ {
		va := page()
		_, _ = as.Touch(va, false)
		_ = as.SplitHugePage(v, va)
	}
	for i := 0; i < c.Touches; i++ {
		_, _ = as.Touch(page(), rng.Intn(2) == 0)
	}
	for i := 0; i < c.Unmaps; i++ {
		_ = as.UnmapPage(v, page())
	}
	return e
}

// machineState is everything Populate may change, in comparable form.
type machineState struct {
	Walks      []string
	Nodes      []string
	NodeCount  int
	Mapped     [3]int
	Faults     uint64
	THPMapped  uint64
	FreeFrames int
	Frames     []phys.Kind
	Stats      phys.Stats
	Drain      []mem.PAddr // what a clone of the allocator hands out next
	Rmap       []kernel.RmapEntry
	Pages      []string
}

// drainOrder empties a clone of pa with Allocs cycling through every
// order and returns what each handed out (failedAlloc on failure). Equal
// free stacks hand out equal blocks in the same order at every size.
func drainOrder(pa *phys.Allocator) []mem.PAddr {
	c := pa.Clone()
	var out []mem.PAddr
	for i := 0; c.FreeFrames() > 0; i++ {
		p, err := c.Alloc(i%(phys.MaxOrder+1), phys.KindUnmovable)
		if err != nil {
			p = failedAlloc
		}
		out = append(out, p)
	}
	return out
}

const failedAlloc = ^mem.PAddr(0)

func captureState(tb testing.TB, e *populateEnv) machineState {
	tb.Helper()
	if err := e.pa.Audit(); err != nil {
		tb.Fatal(err)
	}
	as := e.as
	s := machineState{
		NodeCount: as.Pool.NodeCount(), Mapped: as.PT.Mapped,
		Faults: as.Faults, THPMapped: as.THPMapped,
		FreeFrames: e.pa.FreeFrames(), Stats: e.pa.Stats,
		Drain: drainOrder(e.pa), Rmap: as.RmapEntries(),
	}
	as.Pool.CountNodes(func(n *pagetable.Node) bool {
		s.Nodes = append(s.Nodes, fmt.Sprintf("L%d@%#x", n.Level, uint64(n.Base)))
		return false
	})
	sort.Strings(s.Nodes)
	for f := 0; f < e.pa.TotalFrames(); f++ {
		s.Frames = append(s.Frames, e.pa.FrameKind(e.pa.Base()+mem.PAddr(f)<<mem.PageShift4K))
	}
	for _, v := range e.vmas {
		s.Pages = append(s.Pages, fmt.Sprintf("%s populated=%d", v.Name, v.PopulatedPages()))
		for va := v.Start; va < v.End; va += mem.PageBytes4K {
			r := as.PT.Walk(va)
			s.Walks = append(s.Walks, fmt.Sprintf("%#x ok=%v pte=%#x steps=%v", uint64(va), r.OK, uint64(r.PTE), r.Steps))
			size, present := v.PresentSize(va)
			s.Pages = append(s.Pages, fmt.Sprintf("%#x present=%v size=%v resident=%v", uint64(va), present, size, v.ResidentAt(va)))
		}
	}
	return s
}

// checkPopulate populates two identical builds of c, one with Populate and
// one with the per-page reference, and requires the same error and the
// same resulting machine.
func checkPopulate(tb testing.TB, c populateCase) error {
	tb.Helper()
	got, want := buildPopulateCase(tb, c), buildPopulateCase(tb, c)
	errGot := got.as.Populate(got.vmas[len(got.vmas)-1])
	errWant := populatePerPage(want.as, want.vmas[len(want.vmas)-1])
	if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
		tb.Fatalf("%+v: Populate err %v, per-page err %v", c, errGot, errWant)
	}
	sg, sw := captureState(tb, got), captureState(tb, want)
	if !reflect.DeepEqual(sg, sw) {
		tb.Fatalf("%+v: machines differ after Populate:\n%s", c, firstDiff(sg, sw))
	}
	return errGot
}

func firstDiff(a, b machineState) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			continue
		}
		name := va.Type().Field(i).Name
		if fa.Kind() == reflect.Slice && fa.Len() == fb.Len() {
			for j := 0; j < fa.Len(); j++ {
				if !reflect.DeepEqual(fa.Index(j).Interface(), fb.Index(j).Interface()) {
					return fmt.Sprintf("%s[%d]: %v vs %v", name, j, fa.Index(j), fb.Index(j))
				}
			}
		}
		return fmt.Sprintf("%s: %v vs %v", name, fa, fb)
	}
	return "no field differs"
}

func TestPopulateMatchesPerPage(t *testing.T) {
	cases := map[string]populateCase{
		"4k":                 {Frames: 4096, Pages: 1500},
		"4k-unaligned":       {Frames: 4096, StartPg: 7, Pages: 1100},
		"thp":                {THP: true, Frames: 8192, Pages: 2048},
		"thp-unaligned-tail": {THP: true, Frames: 8192, StartPg: 300, Pages: 1700},
		"thp-fragmented":     {THP: true, Fragment: true, Frames: 8192, Pages: 1536},
		"4k-fragmented":      {Fragment: true, Frames: 8192, StartPg: 3, Pages: 1200},
		"pre-touched":        {Frames: 4096, Pages: 1200, Seed: 1, Touches: 300},
		"unmapped-holes":     {Frames: 4096, Pages: 1200, Seed: 2, Touches: 40, Unmaps: 300},
		"split-2m":           {THP: true, Frames: 8192, Pages: 2048, Seed: 3, Splits: 3, Unmaps: 200},
		"neighbor-span":      {THP: true, Frames: 8192, StartPg: 200, Pages: 1000, Neighbor: true},
		"dmt":                {DMT: true, Frames: 8192, StartPg: 5, Pages: 1500, Seed: 4, Touches: 50},
		"dmt-thp-split":      {DMT: true, THP: true, Frames: 16384, Pages: 2048, Seed: 5, Splits: 2, Unmaps: 100},
		"enomem":             {Frames: 700, Pages: 1024},
		"enomem-thp-frag":    {THP: true, Fragment: true, Frames: 2048, Pages: 1536, Seed: 6, Touches: 20},
		"enomem-dmt":         {DMT: true, Frames: 900, StartPg: 9, Pages: 1024},
		// The allocator runs dry inside the first run, in a span whose
		// level-1 node the neighbour already created.
		"enomem-mid-run":     {Frames: 400, StartPg: 100, Pages: 1024, Neighbor: true},
		"enomem-mid-run-dmt": {DMT: true, Frames: 400, StartPg: 100, Pages: 1024, Neighbor: true},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			err := checkPopulate(t, c)
			if wantErr := strings.HasPrefix(name, "enomem"); (err != nil) != wantErr {
				t.Fatalf("Populate err = %v, want an error: %v", err, wantErr)
			}
		})
	}
}

func TestPopulateSplitCaseSplits(t *testing.T) {
	// The split case must really leave 4 KiB pages inside THP-eligible
	// spans, or it would test nothing beyond the plain THP case.
	e := buildPopulateCase(t, populateCase{THP: true, Frames: 8192, Pages: 2048, Seed: 3, Splits: 3, Unmaps: 200})
	v := e.vmas[0]
	split := 0
	for va := v.Start; va < v.End; va += mem.PageBytes2M {
		if size, ok := v.PresentSize(va + mem.PageBytes4K); ok && size == mem.Size4K {
			split++
		}
	}
	if split == 0 {
		t.Fatal("no 2 MiB page was split before Populate")
	}
}

func FuzzPopulate(f *testing.F) {
	f.Add(false, false, false, uint16(4096), uint16(0), uint16(1500), false, int64(0), uint8(0), uint8(0), uint8(0))
	f.Add(true, false, false, uint16(8192), uint16(300), uint16(1700), true, int64(1), uint8(10), uint8(2), uint8(50))
	f.Add(true, true, true, uint16(2048), uint16(5), uint16(1536), false, int64(2), uint8(20), uint8(1), uint8(30))
	f.Add(false, true, false, uint16(900), uint16(9), uint16(1024), true, int64(3), uint8(5), uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, thp, dmt, frag bool, frames, startPg, pages uint16, neighbor bool, seed int64, touches, splits, unmaps uint8) {
		checkPopulate(t, populateCase{
			THP: thp, DMT: dmt, Fragment: frag,
			Frames:   256 + int(frames)%8192,
			StartPg:  int(startPg) % 1024,
			Pages:    1 + int(pages)%2048,
			Neighbor: neighbor, Seed: seed,
			Touches: int(touches), Splits: int(splits) % 4, Unmaps: int(unmaps),
		})
	})
}
