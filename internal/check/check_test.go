package check_test

import (
	"fmt"
	"testing"

	"dmt/internal/fault"
	"dmt/internal/sim"
	"dmt/internal/workload"
)

// The differential-correctness matrix of the fault harness: every walker
// design in every environment it supports, driven through every fault
// schedule with the oracle re-translating each reference through the live
// page tables. A single PA/size mismatch, a fallback firing out of step
// with the fast path, or a broken TEA structural invariant fails the run
// (sim.Run returns the checker's error).

const (
	matrixOps = 6000
	matrixWS  = 24 << 20
)

func matrixConfig(env sim.Environment, d sim.Design, thp bool, plan fault.Plan) sim.Config {
	wl, err := workload.ByName("GUPS")
	if err != nil {
		panic(err)
	}
	return sim.Config{
		Env:       env,
		Design:    d,
		THP:       thp,
		Workload:  wl,
		WSBytes:   matrixWS,
		Ops:       matrixOps,
		Seed:      7,
		FaultPlan: &plan,
		Verify:    true,
	}
}

// TestFaultMatrix runs every (environment, design, schedule) cell with THP
// enabled (so the huge-flip schedule bites) and asserts zero mismatches.
func TestFaultMatrix(t *testing.T) {
	for _, env := range []sim.Environment{sim.EnvNative, sim.EnvVirt, sim.EnvNested} {
		for _, d := range sim.Designs(env) {
			for _, plan := range fault.Suite(matrixOps) {
				t.Run(fmt.Sprintf("%v/%s/%s", env, d, plan.Name), func(t *testing.T) {
					res, err := sim.Run(matrixConfig(env, d, true, plan))
					if err != nil {
						t.Fatal(err)
					}
					if res.Mismatches != 0 {
						t.Fatalf("%d mismatches in %d checks", res.Mismatches, res.Checked)
					}
					if res.Checked == 0 {
						t.Fatal("verification ran zero checks")
					}
					if res.FaultsApplied+res.FaultsSkipped == 0 {
						t.Fatal("no fault events executed")
					}
				})
			}
		}
	}
}

// TestFaultMatrix4K repeats the DMT designs without THP: the register file
// then maintains only the 4K TEA, a different fan-out and fallback shape.
func TestFaultMatrix4K(t *testing.T) {
	cells := []struct {
		env sim.Environment
		d   sim.Design
	}{
		{sim.EnvNative, sim.DesignDMT},
		{sim.EnvVirt, sim.DesignDMT},
		{sim.EnvVirt, sim.DesignPvDMT},
		{sim.EnvNested, sim.DesignPvDMT},
	}
	for _, c := range cells {
		for _, plan := range fault.Suite(matrixOps) {
			t.Run(fmt.Sprintf("%v/%s/%s", c.env, c.d, plan.Name), func(t *testing.T) {
				res, err := sim.Run(matrixConfig(c.env, c.d, false, plan))
				if err != nil {
					t.Fatal(err)
				}
				if res.Mismatches != 0 {
					t.Fatalf("%d mismatches in %d checks", res.Mismatches, res.Checked)
				}
			})
		}
	}
}

// TestVerifyWithoutFaults asserts the oracle is quiet on an unperturbed
// run — a baseline for the harness itself.
func TestVerifyWithoutFaults(t *testing.T) {
	for _, d := range []sim.Design{sim.DesignVanilla, sim.DesignDMT} {
		cfg := matrixConfig(sim.EnvNative, d, true, fault.Plan{})
		cfg.FaultPlan = nil
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Mismatches != 0 || res.Checked == 0 {
			t.Fatalf("%s: mismatches=%d checked=%d", d, res.Mismatches, res.Checked)
		}
	}
}

// TestFaultsActuallyDegrade asserts the harness is not vacuous: the
// register-pressure schedule must push the DMT design into fallback. Run
// at 4K so the working set outsizes the TLB and walks actually happen.
func TestFaultsActuallyDegrade(t *testing.T) {
	plan := fault.RegisterSpill(matrixOps)
	res, err := sim.Run(matrixConfig(sim.EnvNative, sim.DesignDMT, false, plan))
	if err != nil {
		t.Fatal(err)
	}
	base := matrixConfig(sim.EnvNative, sim.DesignDMT, false, plan)
	base.FaultPlan = nil
	ref, err := sim.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks <= ref.Fallbacks {
		t.Fatalf("register pressure did not increase fallbacks: %d <= %d", res.Fallbacks, ref.Fallbacks)
	}
	if res.Coverage >= ref.Coverage {
		t.Fatalf("register pressure did not reduce coverage: %.3f >= %.3f", res.Coverage, ref.Coverage)
	}
}

// TestDeterministic asserts a faulted, verified run is bit-for-bit
// repeatable for a fixed seed (the property the degradation table relies
// on).
func TestDeterministic(t *testing.T) {
	run := func() *sim.Result {
		plan := fault.Chaos(matrixOps)
		res, err := sim.Run(matrixConfig(sim.EnvVirt, sim.DesignDMT, true, plan))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.WalkCycles != b.WalkCycles || a.Fallbacks != b.Fallbacks ||
		a.FaultsApplied != b.FaultsApplied || a.DemandFaults != b.DemandFaults {
		t.Fatalf("nondeterministic run: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			a.WalkCycles, a.Fallbacks, a.FaultsApplied, a.DemandFaults,
			b.WalkCycles, b.Fallbacks, b.FaultsApplied, b.DemandFaults)
	}
}
