package core

import (
	"testing"

	"dmt/internal/cache"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/phys"
	"dmt/internal/tea"
)

// newGradualRig builds a native rig whose TEA manager leaves migrations
// in flight until PumpMigration is called, so tests can hold the
// migration window open (P-bit clear, §4.3) across walks.
func newGradualRig(t *testing.T, thp bool) *rig {
	t.Helper()
	pa := phys.New(0, 1<<16)
	as, err := kernel.NewAddressSpace(pa, kernel.Config{THP: thp})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tea.DefaultConfig(thp)
	cfg.GradualMigration = true
	mg := tea.NewManager(as, tea.NewPhysBackend(pa), cfg)
	as.SetHooks(mg)
	hier, err := cache.NewHierarchy(cache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return newWalkers(as, mg, hier)
}

// TestDMTFallbackMergeRefs pins the ref order of the no-valid-leaf
// fallback: the shared sink holds the TEA probe followed by exactly the
// fetches a radix walk of the same page makes, and the outcome counts the
// probe's sequential step on top of the radix walk's.
func TestDMTFallbackMergeRefs(t *testing.T) {
	r := newRig(t, false)
	v := r.heap(t, 32<<20)

	// Two pages whose leaves we remove: the register still covers them,
	// so the walk probes the 4K TEA (1 ref) and then falls back.
	vaA := v.Start + 3*mem.PageBytes4K
	vaB := v.Start + 9*mem.PageBytes4K
	for _, va := range []mem.VAddr{vaA, vaB} {
		if err := r.as.UnmapPage(v, va); err != nil {
			t.Fatal(err)
		}
	}

	for _, va := range []mem.VAddr{vaA, vaB} {
		out, refs := r.walk(r.dmt, va)
		if !out.Fallback || out.OK {
			t.Fatalf("walk of unmapped covered page %#x: fallback=%v ok=%v, want fallback miss", uint64(va), out.Fallback, out.OK)
		}
		radix, radixRefs := r.walk(r.radix, va)
		if want := 1 + len(radixRefs); len(refs) != want {
			t.Fatalf("fallback walk recorded %d refs, want %d (1 TEA probe + %d radix)", len(refs), want, len(radixRefs))
		}
		if refs[0].Dim != "n" || refs[0].Level != mem.Size4K.LeafLevel() {
			t.Fatalf("first ref is not the TEA probe: %+v", refs[0])
		}
		for i, x := range radixRefs {
			if got := refs[1+i]; got.Addr != x.Addr || got.Level != x.Level || got.Dim != x.Dim {
				t.Fatalf("ref %d after the probe is %+v, want the radix walk's %+v", 1+i, got, x)
			}
		}
		if out.SeqSteps != 1+radix.SeqSteps {
			t.Fatalf("fallback walk took %d sequential steps, want %d", out.SeqSteps, 1+radix.SeqSteps)
		}
	}
}

// TestDMTMigrationWindowFallback drives the §4.3 migration window: while a
// TEA migration is in flight the register's P-bit is clear, every walk
// must take the legacy path with Fallback=true and the correct PA, and
// cycle accounting must stay monotone (fallback at least as expensive as
// the radix walk alone). Draining the migration restores the fast path.
func TestDMTMigrationWindowFallback(t *testing.T) {
	r := newGradualRig(t, true)
	v := r.heap(t, 32<<20)

	va := v.Start + 5*mem.PageBytes2M + 0x1234
	pre, _ := r.walk(r.dmt, va)
	if !pre.OK || pre.Fallback {
		t.Fatalf("pre-migration walk: ok=%v fallback=%v", pre.OK, pre.Fallback)
	}

	if !r.mg.StartMigration(v.Start) {
		t.Fatal("StartMigration did not begin a migration")
	}
	wantPA, _, ok := r.as.PT.Lookup(va)
	if !ok {
		t.Fatal("page not mapped")
	}
	fbBefore := r.dmt.FallbackWalks
	out, _ := r.walk(r.dmt, va)
	if !out.OK || !out.Fallback {
		t.Fatalf("mid-migration walk: ok=%v fallback=%v, want fallback hit", out.OK, out.Fallback)
	}
	if out.PA != wantPA {
		t.Fatalf("mid-migration PA %#x, want %#x", uint64(out.PA), uint64(wantPA))
	}
	if r.dmt.FallbackWalks != fbBefore+1 {
		t.Fatalf("FallbackWalks %d, want %d", r.dmt.FallbackWalks, fbBefore+1)
	}
	radix, _ := r.walk(r.radix, va)
	if out.Cycles < radix.Cycles {
		t.Fatalf("fallback outcome cheaper than the radix walk it contains: %d < %d", out.Cycles, radix.Cycles)
	}

	for r.mg.MigrationsPending() {
		if r.mg.PumpMigration(1<<30) == 0 {
			t.Fatal("migration pump made no progress")
		}
	}
	post, _ := r.walk(r.dmt, va)
	if !post.OK || post.Fallback {
		t.Fatalf("post-migration walk: ok=%v fallback=%v, want fast path", post.OK, post.Fallback)
	}
	if post.PA != wantPA {
		t.Fatalf("post-migration PA %#x, want %#x", uint64(post.PA), uint64(wantPA))
	}
}
