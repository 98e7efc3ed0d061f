package core

import (
	"dmt/internal/mem"
	"dmt/internal/tea"
)

// RegisterReloadCycles is the cost of loading the 16 DMT registers on a
// context switch or VM exit (§4.1: "these registers ... are exposed to the
// OS as part of the task state. The registers are updated by the OS on
// events like context switches and interrupts in virtual machines"). The
// 192-bit registers load like any architectural state save/restore; we
// charge one cycle per register, matching the MSR-write granularity the
// paper's footnote implies.
const RegisterReloadCycles = tea.DefaultRegisters

// Task couples one process's MMU state for multi-process simulation: its
// walker and the sink its walker chain records into, its ASID, and — for
// DMT — its register file (reloaded on switch).
type Task struct {
	Name   string
	Walker Walker
	Sink   *RefSink
	ASID   uint16
	// UsesDMT charges the register reload on switch-in.
	UsesDMT bool
}

// Scheduler round-robins Tasks over a shared MMU front-end (shared TLB and
// cache hierarchy, per-task walkers), charging context-switch costs: the
// DMT register reload for DMT tasks. TLB entries are ASID-tagged, so they
// survive switches exactly as PCID-tagged entries do on real hardware.
type Scheduler struct {
	MMU   *MMU
	Tasks []*Task

	cur int

	// Stats
	Switches     uint64
	SwitchCycles uint64
	AccessCycles uint64
	Translations uint64
}

// NewScheduler builds a scheduler over a shared MMU. The MMU's walker, sink
// and ASID are overridden per-task on each switch.
func NewScheduler(mmu *MMU, tasks ...*Task) *Scheduler {
	s := &Scheduler{MMU: mmu, Tasks: tasks}
	if len(tasks) > 0 {
		s.install(0)
	}
	return s
}

func (s *Scheduler) install(i int) {
	s.cur = i
	s.MMU.Walker = s.Tasks[i].Walker
	s.MMU.Sink = s.Tasks[i].Sink
	s.MMU.ASID = s.Tasks[i].ASID
}

// Switch moves to the next task, charging the register reload when the
// incoming task uses DMT.
func (s *Scheduler) Switch() {
	next := (s.cur + 1) % len(s.Tasks)
	s.install(next)
	s.Switches++
	if s.Tasks[next].UsesDMT {
		s.SwitchCycles += RegisterReloadCycles
	}
}

// Translate resolves va for the current task, accumulating translation
// overhead.
func (s *Scheduler) Translate(va mem.VAddr) (mem.PAddr, bool) {
	pa, cycles, ok := s.MMU.Translate(va)
	s.AccessCycles += uint64(cycles)
	s.Translations++
	return pa, ok
}
