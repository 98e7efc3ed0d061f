package fault

import (
	"slices"
	"testing"
)

// The injector's scheduling contract is what the batched engine builds its
// fault-boundary spans on (internal/sim): events fire at exactly their At
// op, NextAt never moves backwards, and a drained schedule accounts for
// every event as either applied or skipped. These tests pin that contract
// without a simulation around it — an empty Target makes every
// environment-touching kind a recorded no-op.

const sentinel = 1 << 62

// TestNewSortsEventsStablyByAt: New orders the schedule by At while
// preserving declaration order among equal trigger ops, and it operates on
// its own copy of the event slice.
func TestNewSortsEventsStablyByAt(t *testing.T) {
	events := []Event{
		{At: 30, Kind: FlushCaches},
		{At: 10, Kind: DropDecoys}, // no-op for the empty target
		{At: 10, Kind: FlushCaches},
		{At: 20, Kind: AllocPressure, Arg: 3}, // no-op for the empty target
	}
	plan := Plan{Name: "sort", Events: events}
	// Each flush records how many events were accounted for before it: the
	// stable order is skip, flush, skip, flush.
	var flushes []int
	var in *Injector
	in = New(plan, Target{FlushTLB: func() { flushes = append(flushes, in.Applied+in.Skipped) }})
	events[0].At = 0 // New must have copied; mutating the original is inert

	if got := in.NextAt(); got != 10 {
		t.Fatalf("NextAt before any tick = %d, want 10", got)
	}
	if err := in.Drain(); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3}; !slices.Equal(flushes, want) {
		t.Fatalf("flushes saw %v events before them, want %v (stable At order)", flushes, want)
	}
	if in.Applied != 2 || in.Skipped != 2 {
		t.Fatalf("Applied/Skipped = %d/%d, want 2/2", in.Applied, in.Skipped)
	}
}

// TestTickFiresAtExactOp: an event with At == op fires on Tick(op) and not
// one op earlier — the At <= op semantics the engine's span sizing assumes.
func TestTickFiresAtExactOp(t *testing.T) {
	in := New(Plan{Events: []Event{{At: 100, Kind: FlushCaches}}}, Target{})
	if err := in.Tick(99); err != nil {
		t.Fatal(err)
	}
	if in.Applied != 0 {
		t.Fatalf("event at 100 fired on Tick(99)")
	}
	if got := in.NextAt(); got != 100 {
		t.Fatalf("NextAt after Tick(99) = %d, want 100", got)
	}
	if err := in.Tick(100); err != nil {
		t.Fatal(err)
	}
	if in.Applied != 1 {
		t.Fatalf("event at 100 did not fire on Tick(100)")
	}
	if got := in.NextAt(); got != sentinel {
		t.Fatalf("NextAt after exhaustion = %d, want the 1<<62 sentinel", got)
	}
}

// TestNextAtMonotonicAcrossSuite walks every standard schedule tick by
// tick: NextAt never decreases, ticking at NextAt always consumes at least
// one event, and the exhausted injector reports the sentinel with every
// event accounted for.
func TestNextAtMonotonicAcrossSuite(t *testing.T) {
	const ops = 1600
	for _, plan := range Suite(ops) {
		t.Run(plan.Name, func(t *testing.T) {
			in := New(plan, Target{})
			prev := -1
			for steps := 0; in.NextAt() != sentinel; steps++ {
				if steps > len(plan.Events) {
					t.Fatalf("schedule did not drain after %d ticks", steps)
				}
				at := in.NextAt()
				if at < prev {
					t.Fatalf("NextAt went backwards: %d after %d", at, prev)
				}
				if at < 0 || at >= ops {
					t.Fatalf("event scheduled at %d, outside the %d-op run", at, ops)
				}
				before := in.Applied + in.Skipped
				if err := in.Tick(at); err != nil {
					t.Fatal(err)
				}
				if in.Applied+in.Skipped == before {
					t.Fatalf("Tick(%d) at NextAt consumed no event", at)
				}
				prev = at
			}
			if got := in.Applied + in.Skipped; got != len(plan.Events) {
				t.Fatalf("%d of %d events accounted for", got, len(plan.Events))
			}
		})
	}
}

// TestDrainAppliesRemainingSchedule: Drain executes everything still
// pending regardless of the op counter's position.
func TestDrainAppliesRemainingSchedule(t *testing.T) {
	plan := Chaos(1 << 20)
	in := New(plan, Target{})
	if err := in.Tick(plan.Events[0].At); err != nil {
		t.Fatal(err)
	}
	if err := in.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := in.Applied + in.Skipped; got != len(plan.Events) {
		t.Fatalf("after Drain %d of %d events accounted for", got, len(plan.Events))
	}
	if got := in.NextAt(); got != sentinel {
		t.Fatalf("NextAt after Drain = %d, want the sentinel", got)
	}
}

// TestSkipSemanticsForNilTargets: one event of every kind against an empty
// Target — everything needing a handle is a counted no-op, while
// FlushCaches (whose handles are both optional) still applies.
func TestSkipSemanticsForNilTargets(t *testing.T) {
	kinds := []Kind{StartMigration, PumpMigration, RegisterPressure, DropDecoys,
		AllocPressure, UnmapHot, TouchUnmapped, FlushCaches, SplitHuge, PromoteHuge}
	var events []Event
	for i, k := range kinds {
		events = append(events, Event{At: i, Kind: k, Arg: 1})
	}
	in := New(Plan{Name: "nil-targets", Events: events}, Target{})
	if err := in.Drain(); err != nil {
		t.Fatal(err)
	}
	if in.Applied != 1 || in.Skipped != len(kinds)-1 {
		t.Fatalf("Applied/Skipped = %d/%d, want 1/%d", in.Applied, in.Skipped, len(kinds)-1)
	}
}

// TestSuiteShape: the standard suite stays usable by campaigns — named,
// uniquely seeded, non-empty schedules.
func TestSuiteShape(t *testing.T) {
	suite := Suite(4000)
	if len(suite) == 0 {
		t.Fatal("empty suite")
	}
	names := map[string]bool{}
	seeds := map[int64]bool{}
	for _, p := range suite {
		if p.Name == "" {
			t.Fatal("unnamed plan")
		}
		if names[p.Name] {
			t.Fatalf("duplicate plan name %q", p.Name)
		}
		names[p.Name] = true
		if seeds[p.Seed] {
			t.Fatalf("duplicate plan seed %d (%s)", p.Seed, p.Name)
		}
		seeds[p.Seed] = true
		if len(p.Events) == 0 {
			t.Fatalf("plan %q has no events", p.Name)
		}
	}
}
