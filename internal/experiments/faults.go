package experiments

import (
	"fmt"
	"strings"

	"dmt/internal/fault"
	"dmt/internal/sim"
	"dmt/internal/stats"
	"dmt/internal/workload"
)

// FaultCampaign runs every (environment × design × fault schedule) cell
// with the differential oracle armed and renders the graceful-degradation
// table: register coverage, fallback rate, walk-latency inflation over the
// unfaulted baseline, demand refaults, and the oracle's check count. Any
// PA/size mismatch, out-of-step fallback, or broken TEA invariant aborts
// the campaign with an error — the zero-mismatch claim is the result.
//
// Results are deterministic for a fixed Options.Seed: schedules carry
// their own seeds and the simulator introduces no other randomness.
func FaultCampaign(r *Runner) (string, error) {
	var b strings.Builder
	opt := r.Options()
	for _, wl := range opt.Workloads {
		s, err := faultCampaignFor(opt, wl)
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	return b.String(), nil
}

func faultCampaignFor(opt Options, wl workload.Spec) (string, error) {
	t := &stats.Table{
		Title: fmt.Sprintf("Fault campaign: graceful degradation under injected faults (%s, %d ops, seed %d)",
			wl.Name, opt.Ops, opt.Seed),
		Header: []string{"Env", "Design", "Schedule", "Faults", "Refaults",
			"Coverage", "Fallback rate", "Walk infl.", "p99", "Max", "Checks"},
	}
	totalChecked := uint64(0)
	for _, env := range []sim.Environment{sim.EnvNative, sim.EnvVirt, sim.EnvNested} {
		for _, d := range sim.Designs(env) {
			cfg := sim.Config{
				Env: env, Design: d, THP: true, Workload: wl,
				WSBytes: opt.WSBytes, Ops: opt.Ops, Seed: opt.Seed,
				CacheScale: opt.CacheScale,
			}
			opt.Logf("fault campaign baseline %v/%s %s ...", env, d, wl.Name)
			base, err := sim.Run(cfg)
			if err != nil {
				return "", fmt.Errorf("baseline %v/%s: %w", env, d, err)
			}
			for _, plan := range fault.Suite(opt.Ops) {
				fcfg := cfg
				p := plan
				fcfg.FaultPlan = &p
				fcfg.Verify = true
				opt.Logf("fault campaign %v/%s/%s %s ...", env, d, plan.Name, wl.Name)
				res, err := sim.Run(fcfg)
				if err != nil {
					return "", fmt.Errorf("%v/%s/%s: %w", env, d, plan.Name, err)
				}
				if res.Mismatches != 0 {
					return "", fmt.Errorf("%v/%s/%s: %d mismatches in %d checks",
						env, d, plan.Name, res.Mismatches, res.Checked)
				}
				totalChecked += res.Checked
				t.Add(env.String(), string(d), plan.Name,
					fmt.Sprintf("%d+%ds", res.FaultsApplied, res.FaultsSkipped),
					res.DemandFaults,
					fmt.Sprintf("%.1f%%", res.Coverage*100),
					fmt.Sprintf("%.2f%%", fallbackRate(res)*100),
					fmt.Sprintf("%.2fx", inflation(res, base)),
					res.WalkPercentile(99),
					res.WalkHist.Max,
					res.Checked)
			}
		}
	}
	return t.String() + fmt.Sprintf("%d translations re-verified against live page tables, 0 mismatches.\n\n",
		totalChecked), nil
}

// fallbackRate is the fraction of page walks the design served through its
// legacy fallback path (always 0 for designs without one).
func fallbackRate(r *sim.Result) float64 {
	if r.Walks == 0 {
		return 0
	}
	return float64(r.Fallbacks) / float64(r.Walks)
}

// inflation compares mean walk latency against the unfaulted baseline of
// the same configuration.
func inflation(res, base *sim.Result) float64 {
	b := base.AvgWalkCycles()
	if b == 0 {
		return 1
	}
	return res.AvgWalkCycles() / b
}
