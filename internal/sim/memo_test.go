package sim

import (
	"fmt"
	"strings"
	"testing"

	"dmt/internal/check"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/obs"
	"dmt/internal/workload"
)

// memoConfig is a small vanilla machine whose reference chain holds depth
// tables: the process table natively (1), plus the VM's host table (2),
// plus L1's under nesting (3).
func memoConfig(t testing.TB, depth int) Config {
	t.Helper()
	wl, err := workload.ByName("Redis")
	if err != nil {
		t.Fatal(err)
	}
	env := [...]Environment{EnvNative, EnvVirt, EnvNested}[depth-1]
	return Config{Env: env, Design: DesignVanilla, THP: true, Workload: wl,
		WSBytes: 8 << 20, Ops: 1, Seed: 5}.withDefaults()
}

// FuzzRefMemo checks the reference memo against the uncached parts.ref
// while random Map, Unmap, 2 MiB-into-4 KiB splits and RelocateNode calls
// rewrite the process table and the host tables of a reference chain 1 to
// 3 tables deep. The memo must answer exactly as parts.ref does for every
// probe, the second probe of a VA (a memo hit) included.
//
// Input: the first byte picks the depth; then each 4-byte op is kind,
// table and size selector, the VA it acts on, and a second VA (the target
// of a Map, or the level of a relocation). A VA byte indexes probeVAs.
func FuzzRefMemo(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1})                           // native: probe, unmap a 2M page, probe
	f.Add([]byte{1, 3, 1, 0, 0, 0, 0, 1, 2})                                       // virt: split the host page under a guest 2M page
	f.Add([]byte{1, 3, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0})                           // virt: split it, unmap one host 4K page of it
	f.Add([]byte{1, 1, 0, 0, 0, 2, 0, 0, 32, 0, 0, 1, 0})                          // virt: a guest 4K page over a host 2M page
	f.Add([]byte{1, 1, 0, 32, 0, 2, 0x10, 32, 64, 0, 0, 33, 64, 1, 1, 64, 0})      // virt: remap a guest 2M page, unmap the host page under it
	f.Add([]byte{2, 3, 2, 0, 0, 1, 2, 33, 0, 4, 1, 0, 1, 4, 0, 64, 2, 1, 1, 0, 0}) // nested: split L1's host page, unmap, relocate
	f.Add([]byte{2, 3, 1, 96, 0, 4, 2, 96, 0, 1, 0, 97, 0, 0, 0, 96, 98})          // nested: split L2's host page, relocate L1's node, unmap
	f.Add([]byte{0, 0, 0, 255, 254, 1, 0, 200, 0, 0, 0, 0, 255})                   // VA 0 and unmapped VAs
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+4*64 {
			return
		}
		proto, err := cachedPrototype(memoConfig(t, 1+int(data[0])%3))
		if err != nil {
			t.Fatal(err)
		}
		p, err := proto.parts.clone()
		if err != nil {
			t.Fatal(err)
		}
		memo := newRefMemo(p)
		spaces := []*kernel.AddressSpace{p.as}
		for vm := p.vm; vm != nil; vm = vm.Parent {
			spaces = append(spaces, vm.HostAS)
		}
		vas := probeVAs(p)
		// at returns the address that the reference chain feeds table i
		// when translating va: va itself for the process table, else the
		// previous table's translation of it.
		at := func(va mem.VAddr, i int) (mem.VAddr, bool) {
			for _, as := range spaces[:i] {
				pa, _, ok := as.PT.Lookup(va)
				if !ok {
					return 0, false
				}
				va = mem.VAddr(pa)
			}
			return va, true
		}
		probe := func(op int, va mem.VAddr) {
			want := fmt.Sprint(p.ref(va))
			for k := 0; k < 2; k++ {
				if got := fmt.Sprint(memo.ref(va)); got != want {
					t.Fatalf("op %d: memo.ref(%#x) = %s, parts.ref %s (probe %d)", op, uint64(va), got, want, k)
				}
			}
		}
		for i := 1; i+4 <= len(data); i += 4 {
			kind, sel, a, b := data[i]%5, data[i+1], vas[data[i+2]], vas[data[i+3]]
			tbl := int(sel) % len(spaces)
			pt := spaces[tbl].PT
			x, okx := at(a, tbl)
			switch {
			case kind == 0 || !okx: // probe only
			case kind == 1: // unmap the leaf covering x
				if _, size, ok := pt.Lookup(x); ok {
					if err := pt.Unmap(mem.AlignDown(x, size.Bytes()), size); err != nil {
						t.Fatal(err)
					}
				}
			case kind == 2: // map x at 4K or 2M onto what b's chain feeds the next table
				size := mem.PageSize(sel >> 4 & 1)
				if y, ok := at(b, tbl+1); ok {
					_ = pt.Map(mem.AlignDown(x, size.Bytes()), mem.PAddr(mem.AlignDown(y, size.Bytes())), size, mem.PTEWritable)
				}
			case kind == 3: // split x's 2M leaf into 4K leaves in reverse frame order
				if pa, size, ok := pt.Lookup(x); ok && size == mem.Size2M {
					base, frame := mem.AlignDown(x, mem.PageBytes2M), mem.AlignDownP(pa, mem.PageBytes2M)
					if err := pt.Unmap(base, mem.Size2M); err != nil {
						t.Fatal(err)
					}
					for j := 0; j < mem.EntriesPerNode; j++ {
						rev := frame + mem.PAddr((mem.EntriesPerNode-1-j)*mem.PageBytes4K)
						if err := pt.Map(base+mem.VAddr(j*mem.PageBytes4K), rev, mem.Size4K, mem.PTEWritable); err != nil {
							t.Fatal(err)
						}
					}
				}
			case kind == 4: // relocate a node on x's walk path
				level := 1 + int(data[i+3])%(pt.Levels()-1)
				if pt.NodeForLevel(x, level) != nil {
					frame, err := spaces[tbl].AllocNodeFrame()
					if err != nil {
						t.Fatal(err)
					}
					if err := pt.RelocateNode(x, level, frame); err != nil {
						t.Fatal(err)
					}
				}
			}
			probe(i/4, a)
			probe(i/4, b)
			probe(i/4, a+mem.PageBytes4K)
		}
		for _, va := range vas {
			probe(len(data)/4, va)
		}
	})
}

// probeVAs returns 256 probe addresses: 32 spread over the first 2 MiB of
// each of the workload's first six major VMAs, then unmapped ones — just
// past those VMAs, and low addresses down to VA 0, which must not hit an
// empty memo slot.
func probeVAs(p *parts) (vas [256]mem.VAddr) {
	for i := range vas {
		m := p.built.Major[i/32%len(p.built.Major)]
		switch {
		case i < 192:
			vas[i] = m.Start + mem.VAddr(i%32)<<16 + 0x123
		case i < 240:
			vas[i] = m.End + mem.PageBytes2M + mem.VAddr(i%32)<<12
		default:
			vas[i] = mem.VAddr(255-i) * 0x1001
		}
	}
	return vas
}

// TestOracleCatchesStaleTLB moves the workload's 2 MiB pages to each other's frames
// straight through the process table, past the kernel's shootdown, after a
// first batch has filled the TLB with their old translations. The TLB then
// serves stale frames, and the oracle, whose reference memo must see the
// table change, has to report them at Finish.
func TestOracleCatchesStaleTLB(t *testing.T) {
	wl, err := workload.ByName("Redis")
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range []Environment{EnvNative, EnvVirt, EnvNested} {
		t.Run(env.String(), func(t *testing.T) {
			in, err := NewInstance(Config{Env: env, Design: DesignVanilla, THP: true, Workload: wl,
				WSBytes: 16 << 20, Ops: 8 * BatchOps, Seed: 11, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := in.StepBatch(BatchOps); err != nil {
				t.Fatal(err)
			}
			as := in.m.target.AS
			pt := as.PT
			var bases []mem.VAddr
			var frames []mem.PAddr
			for _, v := range as.VMAs() {
				for va := mem.AlignUp(v.Start, mem.PageBytes2M); va+mem.PageBytes2M <= v.End; va += mem.PageBytes2M {
					if pa, size, ok := pt.Lookup(va); ok && size == mem.Size2M {
						bases, frames = append(bases, va), append(frames, pa)
					}
				}
			}
			if len(bases) < 2 {
				t.Fatalf("%d hot 2 MiB pages, want at least 2", len(bases))
			}
			for _, va := range bases {
				if err := pt.Unmap(va, mem.Size2M); err != nil {
					t.Fatal(err)
				}
			}
			for k, va := range bases {
				if err := pt.Map(va, frames[(k+1)%len(frames)], mem.Size2M, mem.PTEWritable); err != nil {
					t.Fatal(err)
				}
			}
			for in.op < in.Ops() {
				if _, err := in.StepBatch(BatchOps); err != nil {
					t.Fatal(err)
				}
			}
			_, err = in.Finish()
			if err == nil || !(strings.Contains(err.Error(), " pa: ") || strings.Contains(err.Error(), " ok: ")) {
				t.Fatalf("Finish = %v, want pa or ok mismatches", err)
			}
		})
	}
}

// TestReconcileFlagsImbalance feeds the Finish-time counter reconciliation
// a balanced counter set, then the same set with one counter off by one
// per identity: each imbalance is one "balance" mismatch, and none counts
// as a checked translation.
func TestReconcileFlagsImbalance(t *testing.T) {
	balanced := obs.Counters{
		"tlb.l1_hits": 70, "tlb.l2_hits": 20, "tlb.misses": 10, "mmu.lookups": 100,
		"cache.l1d_hits": 300, "cache.l1d_misses": 50, "cache.accesses": 350,
		"cache.llc_misses": 9, "cache.mem_fetches": 9,
		"fault.applied": 4, "fault.skipped": 2,
	}
	const events = 6
	chk := check.New(check.Config{Ref: func(mem.VAddr) (mem.PAddr, mem.PageSize, bool) { return 0, 0, false }})
	reconcile(chk, balanced, events)
	if chk.Mismatched != 0 {
		t.Fatalf("balanced counters: %v", chk.Err())
	}
	for _, name := range []string{"mmu.lookups", "tlb.l2_hits", "cache.accesses", "cache.l1d_misses", "cache.mem_fetches", "fault.skipped"} {
		t.Run(name, func(t *testing.T) {
			c := obs.Counters{}
			c.Merge(balanced)
			c[name]++
			chk := check.New(check.Config{Ref: func(mem.VAddr) (mem.PAddr, mem.PageSize, bool) { return 0, 0, false }})
			reconcile(chk, c, events)
			if chk.Mismatched != 1 || chk.Checked != 0 || chk.Recorded[0].Kind != "balance" {
				t.Fatalf("%s off by one: %d mismatches (%v), %d checked; want one balance mismatch, none checked",
					name, chk.Mismatched, chk.Err(), chk.Checked)
			}
		})
	}
	// Without fault counters the fault identity is not checked.
	noFaults := obs.Counters{}
	noFaults.Merge(balanced)
	delete(noFaults, "fault.applied")
	delete(noFaults, "fault.skipped")
	reconcile(chk, noFaults, events)
	if chk.Mismatched != 0 {
		t.Fatalf("fault identity checked without a fault plan: %v", chk.Err())
	}
}
