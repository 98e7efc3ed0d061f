package pagetable

import (
	"testing"

	"dmt/internal/mem"
)

// TestGenAdvancesOnEveryTranslationWrite drives each table mutator once and
// checks that Gen advances exactly when the operation wrote a PTE that
// changes a translation or a node's placement: every Map, Unmap and
// RelocateNode path does, A/D updates and failed operations do not.
func TestGenAdvancesOnEveryTranslationWrite(t *testing.T) {
	const va = mem.VAddr(0x7f00_0020_0000)
	mapOne := func(tbl *Table) {
		if err := tbl.Map(va, 0x4000_0000, mem.Size4K, 0); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		setup   func(*Table)
		op      func(*Table, *frameAlloc) error
		advance bool
	}{
		{"Map creating nodes", nil, func(tbl *Table, _ *frameAlloc) error {
			return tbl.Map(va, 0x4000_0000, mem.Size4K, 0)
		}, true},
		{"Map into an existing node", mapOne, func(tbl *Table, _ *frameAlloc) error {
			return tbl.Map(va+mem.PageBytes4K, 0x4000_1000, mem.Size4K, 0)
		}, true},
		{"Map failing part-way (discard)", nil, func(tbl *Table, a *frameAlloc) error {
			a.failIn = 2
			if err := tbl.Map(va, 0x4000_0000, mem.Size4K, 0); err == nil {
				t.Fatal("Map with a failing allocator succeeded")
			}
			return nil
		}, true},
		{"Cursor.Map", mapOne, func(tbl *Table, _ *frameAlloc) error {
			c := tbl.Cursor()
			return c.Map(va+mem.PageBytes4K, 0x4000_1000, mem.Size4K, 0)
		}, true},
		{"Cursor.MapRun", mapOne, func(tbl *Table, _ *frameAlloc) error {
			c := tbl.Cursor()
			c.MapRun(va+mem.PageBytes4K, []mem.PAddr{0x4000_1000, 0x4000_2000}, 0)
			return nil
		}, true},
		{"Unmap a leaf", func(tbl *Table) {
			mapOne(tbl)
			if err := tbl.Map(va+mem.PageBytes4K, 0x4000_1000, mem.Size4K, 0); err != nil {
				t.Fatal(err)
			}
		}, func(tbl *Table, _ *frameAlloc) error { return tbl.Unmap(va, mem.Size4K) }, true},
		{"Unmap pruning nodes", mapOne, func(tbl *Table, _ *frameAlloc) error {
			return tbl.Unmap(va, mem.Size4K)
		}, true},
		{"RelocateNode", mapOne, func(tbl *Table, a *frameAlloc) error {
			target, _ := a.alloc(1, va)
			return tbl.RelocateNode(va, 1, target)
		}, true},
		{"SetAccessed", mapOne, func(tbl *Table, _ *frameAlloc) error {
			if !tbl.SetAccessed(va, true) {
				t.Fatal("SetAccessed found no leaf")
			}
			return nil
		}, false},
		{"Cursor.SetAccessed", mapOne, func(tbl *Table, _ *frameAlloc) error {
			c := tbl.Cursor()
			if !c.SetAccessed(va, true) {
				t.Fatal("Cursor.SetAccessed found no leaf")
			}
			return nil
		}, false},
		{"Map over a leaf", mapOne, func(tbl *Table, _ *frameAlloc) error {
			if tbl.Map(va, 0x5000_0000, mem.Size4K, 0) == nil {
				t.Fatal("Map over a leaf succeeded")
			}
			return nil
		}, false},
		{"Unmap of an absent leaf", mapOne, func(tbl *Table, _ *frameAlloc) error {
			if tbl.Unmap(va+mem.PageBytes4K, mem.Size4K) == nil {
				t.Fatal("Unmap of an absent leaf succeeded")
			}
			return nil
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := &frameAlloc{next: 0x10_0000}
			tbl, err := New(NewPool(), mem.Levels4, a.alloc, a.release)
			if err != nil {
				t.Fatal(err)
			}
			if c.setup != nil {
				c.setup(tbl)
			}
			before := tbl.Gen()
			if err := c.op(tbl, a); err != nil {
				t.Fatal(err)
			}
			if got := tbl.Gen(); (got > before) != c.advance || got < before {
				t.Fatalf("Gen %d -> %d, want advance %v", before, got, c.advance)
			}
			if clone := tbl.Clone(a.alloc, a.release); clone.Gen() != tbl.Gen() {
				t.Fatalf("Clone Gen = %d, original %d", clone.Gen(), tbl.Gen())
			}
		})
	}
}
