// Package check is a differential-correctness oracle for translation
// walkers. After every walk it re-translates the address through a
// reference function (the live page tables, composed across virtualization
// levels), asserting that the walker's physical address and page size
// agree, that fallback fires exactly when the DMT fast path cannot serve
// (§4.6.1), and — for TEA-backed designs — that the register file and TEA
// regions satisfy the structural invariants of §4.2–§4.4. It is the
// correctness half of the fault-injection harness: internal/fault degrades
// the environment, this package proves walkers stay right while degraded.
package check

import (
	"fmt"

	"dmt/internal/core"
	"dmt/internal/mem"
)

// Ref is a reference translation: ground truth for one environment,
// computed from the live page tables (never from walker state).
type Ref func(va mem.VAddr) (pa mem.PAddr, size mem.PageSize, ok bool)

// Config selects which properties a Checker asserts.
type Config struct {
	// Ref is the ground-truth translation. Required.
	Ref Ref
	// FastPath, when set, reports whether a DMT-family fast path can serve
	// va, judged from the page tables (Chain, VirtChain) and never through
	// the walker; the checker then asserts outcome Fallback == !FastPath(va).
	FastPath func(va mem.VAddr) bool
	// SizeExact asserts the outcome page size equals the reference size.
	// Leave false for designs that legitimately splinter sizes (a shadow
	// page table maps a guest 2M page with 4K host leaves); the physical
	// address is still asserted exactly.
	SizeExact bool
	// Invariants, when set, is run by CheckInvariants (after fault events
	// and at end of run); it returns one description per violation.
	Invariants func() []string
	// MaxRecord caps recorded mismatches (counting continues); default 16.
	MaxRecord int
}

// Mismatch is one disagreement between a walker and the oracle.
type Mismatch struct {
	VA     mem.VAddr
	Kind   string // "ok" | "pa" | "size" | "fallback" | "invariant" | "balance"
	Detail string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("va=%#x %s: %s", uint64(m.VA), m.Kind, m.Detail)
}

// Checker verifies walker outcomes against the reference translation.
type Checker struct {
	cfg Config

	Checked    uint64
	Mismatched uint64
	Recorded   []Mismatch
}

// New builds a Checker; cfg.Ref must be non-nil.
func New(cfg Config) *Checker {
	if cfg.Ref == nil {
		panic("check: Config.Ref is required")
	}
	if cfg.MaxRecord <= 0 {
		cfg.MaxRecord = 16
	}
	return &Checker{cfg: cfg}
}

func (c *Checker) record(va mem.VAddr, kind, format string, argv ...any) {
	c.Mismatched++
	if len(c.Recorded) < c.cfg.MaxRecord {
		c.Recorded = append(c.Recorded, Mismatch{VA: va, Kind: kind, Detail: fmt.Sprintf(format, argv...)})
	}
}

// CheckWalk compares one walk outcome against the reference translation.
func (c *Checker) CheckWalk(va mem.VAddr, out core.WalkOutcome) {
	c.Checked++
	pa, size, ok := c.cfg.Ref(va)
	if out.OK != ok {
		c.record(va, "ok", "walker ok=%v, reference ok=%v", out.OK, ok)
		return
	}
	if !ok {
		return
	}
	if out.PA != pa {
		c.record(va, "pa", "walker PA=%#x, reference PA=%#x", uint64(out.PA), uint64(pa))
	}
	if c.cfg.SizeExact && out.Size != size {
		c.record(va, "size", "walker size=%v, reference size=%v", out.Size, size)
	}
	if c.cfg.FastPath != nil {
		if fast := c.cfg.FastPath(va); out.Fallback == fast {
			c.record(va, "fallback", "fallback=%v but fast path serveable=%v", out.Fallback, fast)
		}
	}
}

// CheckTranslate compares a completed MMU translation (possibly served by
// the TLB, bypassing the walker) against the reference — the check that
// catches stale TLB entries surviving an invalidation.
func (c *Checker) CheckTranslate(va mem.VAddr, pa mem.PAddr) {
	c.Checked++
	rpa, _, ok := c.cfg.Ref(va)
	if !ok {
		c.record(va, "ok", "MMU translated to %#x but reference says unmapped", uint64(pa))
		return
	}
	if pa != rpa {
		c.record(va, "pa", "MMU PA=%#x, reference PA=%#x", uint64(pa), uint64(rpa))
	}
}

// CheckInvariants runs the configured structural-invariant probe.
func (c *Checker) CheckInvariants() {
	if c.cfg.Invariants == nil {
		return
	}
	for _, v := range c.cfg.Invariants() {
		c.record(0, "invariant", "%s", v)
	}
}

// CheckBalance records a "balance" mismatch when a counter identity does
// not hold: left and right are its two sides, name spells it out. It checks
// no translation, so Checked does not move.
func (c *Checker) CheckBalance(name string, left, right uint64) {
	if left != right {
		c.record(0, "balance", "%s: %d != %d", name, left, right)
	}
}

// Err summarizes all mismatches as one error, or nil when every check
// passed.
func (c *Checker) Err() error {
	if c.Mismatched == 0 {
		return nil
	}
	s := fmt.Sprintf("check: %d/%d translations mismatched", c.Mismatched, c.Checked)
	for _, m := range c.Recorded {
		s += "\n  " + m.String()
	}
	if int(c.Mismatched) > len(c.Recorded) {
		s += fmt.Sprintf("\n  ... and %d more", int(c.Mismatched)-len(c.Recorded))
	}
	return fmt.Errorf("%s", s)
}
