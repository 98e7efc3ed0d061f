package pagetable

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"dmt/internal/mem"
)

// refLeaf is the reference model's record of one leaf: its page size and
// the exact PTE the table must hold for it.
type refLeaf struct {
	size mem.PageSize
	pte  mem.PTE
}

// refTable is the reference model: leaves keyed by page base VA. Leaves
// never overlap, so a base VA names at most one of them.
type refTable map[mem.VAddr]refLeaf

// cover returns the base VA and leaf covering va, if any.
func (r refTable) cover(va mem.VAddr) (mem.VAddr, refLeaf, bool) {
	for s := mem.Size4K; s <= mem.Size1G; s++ {
		base := mem.AlignDown(va, s.Bytes())
		if l, ok := r[base]; ok && l.size == s {
			return base, l, true
		}
	}
	return 0, refLeaf{}, false
}

// overlaps reports whether any leaf shares an address with [va, va+size).
func (r refTable) overlaps(va mem.VAddr, size mem.PageSize) bool {
	end := va + mem.VAddr(size.Bytes())
	for base, l := range r {
		if base < end && va < base+mem.VAddr(l.size.Bytes()) {
			return true
		}
	}
	return false
}

// hasNode reports whether the level-`level` node on va's walk path exists:
// exactly when a leaf at that level or below lies in the span the node
// covers (Map creates nodes only to install a leaf beneath them, and Unmap
// prunes a node once its last entry goes).
func (r refTable) hasNode(va mem.VAddr, level int) bool {
	shift := mem.LevelShift(level + 1)
	for base, l := range r {
		if l.size.LeafLevel() <= level && base>>shift == va>>shift {
			return true
		}
	}
	return false
}

// frameAlloc places nodes from PA 0 upward and hands freed frames back
// last-freed-first, so a node can sit at PA 0 (the frame an absent entry
// names) and a pruned or relocated node's frame returns under another
// node, where a stale index entry would resolve to the wrong node.
type frameAlloc struct {
	next mem.PAddr
	free []mem.PAddr
	// failIn, when positive, counts down the calls until one fails with
	// errOutOfFrames.
	failIn int
}

var errOutOfFrames = errors.New("out of node frames")

func (a *frameAlloc) alloc(int, mem.VAddr) (mem.PAddr, error) {
	if a.failIn > 0 {
		if a.failIn--; a.failIn == 0 {
			return 0, errOutOfFrames
		}
	}
	if n := len(a.free); n > 0 {
		pa := a.free[n-1]
		a.free = a.free[:n-1]
		return pa, nil
	}
	pa := a.next
	a.next += mem.PageBytes4K
	return pa, nil
}

func (a *frameAlloc) release(_ int, pa mem.PAddr) { a.free = append(a.free, pa) }

// fuzzVA decodes b into a size-aligned VA drawn from a small grid, so
// random operations keep colliding: 8×8 4 KiB pages in each of 8 2 MiB
// spans of four 1 GiB regions, two of which share a level-4 entry with
// the other two one level-4 entry over.
func fuzzVA(b byte, size mem.PageSize) mem.VAddr {
	regions := [4]uint64{0, 1, 512, 513}
	va := regions[b>>6]<<mem.PageShift1G | uint64(b>>3&7)<<mem.PageShift2M | uint64(b&7)<<mem.PageShift4K
	return mem.AlignDown(mem.VAddr(va), size.Bytes())
}

// fuzzOps returns n random operations for the seed corpus.
func fuzzOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 1+4*n)
	rng.Read(ops)
	return ops
}

// FuzzTableOps runs random sequences of Map (4K/2M/1G, through the table
// or a cursor), Map with an allocator that fails part-way down, Unmap,
// RelocateNode, SetAccessed, Clone and a cursor's AbsentRun/MapRun against
// a map-based reference. After every step it first re-probes every span
// the span memo holds, comparing Walk, WalkInto and Lookup with a walk
// from the root, steps included: the step may have pruned a node whose
// slot and frame a later node took, relocated one, or written nothing.
// Then it checks that Lookup, Walk, NodeForLevel, LeafPTE and a cursor
// agree with the reference; that every present, non-huge upper-level entry
// resolves through NodeAt(pte.Frame()) to a node one level down based at
// that frame, reached from one parent only; and that NodeCount equals the
// number of reachable nodes, so no index entry outlives a prune or a
// relocation. A table cloned mid-run must still match the reference as it
// stood at the clone once the run ends. Gen never falls, and a step that
// leaves it unchanged leaves every probed Lookup unchanged, which is what
// lets a memo keyed by Gen stay exact.
//
// Input: the first byte picks the depth (odd: 5 levels); then each 4-byte
// op is kind, size/mode, VA (fuzzVA), and a PA or relocation selector.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 2, 0, 0, 0, 3, 0, 1, 0})                         // map 4K, unmap it, relocate the pruned path
	f.Add([]byte{1, 0, 1, 9, 2, 0, 0, 8, 3, 3, 1, 9, 0, 5, 0, 0, 0, 2, 1, 9, 0}) // 5 levels: 2M vs 4K, relocate, clone, unmap
	f.Add([]byte{0, 0, 2, 64, 7, 4, 1, 70, 0, 0, 6, 64, 0, 2, 2, 64, 0, 0, 0, 64, 1})
	f.Add([]byte{0, 6, 0, 0, 2, 6, 0, 0, 1, 0, 0, 0, 0, 6, 1, 64, 0}) // 4K Map failing on its L1 node, then on its L2 node; a plain Map; a 2M Map failing on its L2 node
	f.Add([]byte{0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 8, 2})              // map 4K, unmap it (pruning to the root), map the next span: its nodes take the freed slots and frames
	f.Add([]byte{0, 0, 0, 0, 1, 7, 0, 1, 5, 2, 0, 0, 0, 7, 0, 0, 3})  // map 4K, MapRun the next 6 pages, unmap the first, MapRun it again
	for seed := int64(1); seed <= 24; seed++ {
		f.Add(fuzzOps(seed, 96))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+4*128 {
			return
		}
		levels := mem.Levels4
		if data[0]&1 == 1 {
			levels = mem.Levels5
		}
		a := &frameAlloc{}
		tbl, err := New(NewPool(), levels, a.alloc, a.release)
		if err != nil {
			t.Fatal(err)
		}
		ref := refTable{}
		cur := tbl.Cursor()
		var frozen *Table
		var frozenRef refTable
		for i := 1; i+4 <= len(data); i += 4 {
			kind, mode, vb, pb := data[i]%8, data[i+1], data[i+2], data[i+3]
			size := mem.PageSize(mode % 3)
			va := fuzzVA(vb, size)
			gen, before := tbl.Gen(), probeLookups(tbl)
			switch kind {
			case 0, 1: // Map
				pa := mem.PAddr(1<<40 | uint64(pb)<<size.Shift())
				var flags mem.PTE
				if mode&8 != 0 {
					flags = mem.PTEWritable
				}
				want := ref.overlaps(va, size)
				if mode&4 != 0 {
					err = cur.Map(va, pa, size, flags)
				} else {
					err = tbl.Map(va, pa, size, flags)
					cur.Reset()
				}
				if want != errors.Is(err, ErrAlreadyMapped) || (!want && err != nil) {
					t.Fatalf("op %d: Map(%#x, %v) = %v, overlap %v", i/4, uint64(va), size, err, want)
				}
				if err == nil {
					if size != mem.Size4K {
						flags |= mem.PTEHuge
					}
					ref[va] = refLeaf{size, mem.MakePTE(pa, flags)}
				}
			case 2: // Unmap
				l, ok := ref[va]
				want := ok && l.size == size
				err = tbl.Unmap(va, size)
				cur.Reset()
				if want != (err == nil) || (!want && !errors.Is(err, ErrNotMapped)) {
					t.Fatalf("op %d: Unmap(%#x, %v) = %v, mapped %v", i/4, uint64(va), size, err, want)
				}
				if err == nil {
					delete(ref, va)
				}
			case 3: // RelocateNode
				level := 1 + int(mode)%(levels-1)
				target, occupied := tbl.RootPA(), pb&1 == 1
				if !occupied {
					target, _ = a.alloc(level, va)
				}
				err = tbl.RelocateNode(va, level, target)
				cur.Reset()
				want := !occupied && ref.hasNode(va, level)
				if want != (err == nil) {
					t.Fatalf("op %d: RelocateNode(%#x, %d, %#x) = %v, want success %v", i/4, uint64(va), level, uint64(target), err, want)
				}
				if err != nil && !occupied {
					a.release(level, target)
				}
			case 4: // SetAccessed
				write := mode&1 != 0
				ok := tbl.SetAccessed(va, write)
				base, l, want := ref.cover(va)
				if ok != want {
					t.Fatalf("op %d: SetAccessed(%#x) = %v, mapped %v", i/4, uint64(va), ok, want)
				}
				if ok {
					l.pte = l.pte.WithAccessed(write)
					ref[base] = l
				}
			case 6: // Map whose allocator fails on its (1 + pb%3)-th call
				pa := mem.PAddr(1<<40 | uint64(pb)<<size.Shift())
				missing := 0 // nodes the Map must create
				for level := size.LeafLevel(); level < levels; level++ {
					if !ref.hasNode(va, level) {
						missing++
					}
				}
				overlap := ref.overlaps(va, size)
				failOn := 1 + int(pb)%3
				a.failIn = failOn
				err = tbl.Map(va, pa, size, 0)
				cur.Reset()
				switch {
				case overlap:
					if !errors.Is(err, ErrAlreadyMapped) {
						t.Fatalf("op %d: Map(%#x, %v) over a leaf = %v", i/4, uint64(va), size, err)
					}
				case missing >= failOn:
					if !errors.Is(err, errOutOfFrames) {
						t.Fatalf("op %d: Map(%#x, %v) needing %d nodes, allocator failing on call %d = %v", i/4, uint64(va), size, missing, failOn, err)
					}
				case err != nil:
					t.Fatalf("op %d: Map(%#x, %v) = %v", i/4, uint64(va), size, err)
				default:
					var flags mem.PTE
					if size != mem.Size4K {
						flags = mem.PTEHuge
					}
					ref[va] = refLeaf{size, mem.MakePTE(pa, flags)}
				}
				a.failIn = 0
			case 5: // Clone: carry on with the copy, check the original at the end
				frozen, frozenRef = tbl, maps.Clone(ref)
				tbl = tbl.Clone(a.alloc, a.release)
				cur = tbl.Cursor()
			case 7: // MapRun over the absent slots from va, up to 1 + pb%8 pages
				va = fuzzVA(vb, mem.Size4K)
				n := cur.AbsentRun(va, va+mem.VAddr(1+pb%8)<<mem.PageShift4K)
				if n == 0 {
					break // no level-1 node, or va's slot is taken
				}
				pas := make([]mem.PAddr, n)
				for j := range pas {
					pas[j] = mem.PAddr(1<<40 | uint64(pb)<<20 | uint64(j)<<mem.PageShift4K)
					ref[va+mem.VAddr(j)<<mem.PageShift4K] = refLeaf{mem.Size4K, mem.MakePTE(pas[j], mem.PTEWritable)}
				}
				cur.MapRun(va, pas, mem.PTEWritable)
			}
			checkMemo(t, tbl)
			if g := tbl.Gen(); g < gen {
				t.Fatalf("op %d: Gen fell from %d to %d", i/4, gen, g)
			} else if g == gen && probeLookups(tbl) != before {
				t.Fatalf("op %d (kind %d) changed a translation but left Gen at %d", i/4, kind, g)
			}
			checkAgainstRef(t, tbl, &cur, ref)
		}
		if frozen != nil {
			c := frozen.Cursor()
			checkAgainstRef(t, frozen, &c, frozenRef)
		}
	})
}

// rootWalk is Walk from the root, past the span memo.
func rootWalk(tbl *Table, va mem.VAddr) WalkResult {
	return tbl.WalkFrom(tbl.pool.node(tbl.root), tbl.levels, va, nil)
}

// requireRootWalk checks Walk, WalkInto and Lookup of va against a walk
// from the root: every step, the PTE, PA, size and OK.
func requireRootWalk(t *testing.T, tbl *Table, va mem.VAddr) {
	t.Helper()
	want := rootWalk(tbl, va)
	steps := make([]Step, 1, mem.Levels5+1) // a non-empty buffer: WalkInto must append from steps[:0]
	for _, got := range []WalkResult{tbl.Walk(va), tbl.WalkInto(va, steps[:0])} {
		if !slices.Equal(got.Steps, want.Steps) || got.PTE != want.PTE || got.PA != want.PA || got.Size != want.Size || got.OK != want.OK {
			t.Fatalf("walk(%#x) = %+v, from the root %+v", uint64(va), got, want)
		}
	}
	if pa, size, ok := tbl.Lookup(va); pa != want.PA || size != want.Size || ok != want.OK {
		t.Fatalf("Lookup(%#x) = %#x %v %v, from the root %#x %v %v", uint64(va), uint64(pa), size, ok, uint64(want.PA), want.Size, want.OK)
	}
}

// checkMemo re-probes every span the span memo holds, valid or stale, at
// its first and last byte and at every page of the VA grid inside it.
func checkMemo(t *testing.T, tbl *Table) {
	t.Helper()
	if tbl.memo == nil {
		return
	}
	var spans []mem.VAddr
	for _, e := range tbl.memo {
		if e.tag != 0 {
			spans = append(spans, mem.VAddr(e.tag)&^(mem.PageBytes2M-1))
		}
	}
	for _, span := range spans {
		requireRootWalk(t, tbl, span)
		requireRootWalk(t, tbl, span+mem.PageBytes2M-1)
		for b := 0; b < 256; b++ {
			if va := fuzzVA(byte(b), mem.Size4K) + 0x123; va&^(mem.PageBytes2M-1) == span {
				requireRootWalk(t, tbl, va)
			}
		}
	}
}

// probed is one Lookup result.
type probed struct {
	pa   mem.PAddr
	size mem.PageSize
	ok   bool
}

// probeLookups returns Lookup of every page of the VA grid.
func probeLookups(tbl *Table) (out [256]probed) {
	for b := range out {
		pa, size, ok := tbl.Lookup(fuzzVA(byte(b), mem.Size4K) + 0x123)
		out[b] = probed{pa, size, ok}
	}
	return out
}

// checkAgainstRef checks tbl's structure and every translation path
// against ref, using cur (which may hold a resolved span) and a fresh
// cursor for the cursor path.
func checkAgainstRef(t *testing.T, tbl *Table, cur *Cursor, ref refTable) {
	t.Helper()
	pool := tbl.Pool()
	root, ok := pool.NodeAt(tbl.RootPA())
	if !ok || root.Base != tbl.RootPA() || root.Level != tbl.Levels() {
		t.Fatalf("root at %#x not indexed as a level-%d node", uint64(tbl.RootPA()), tbl.Levels())
	}

	// Structure: every pointer entry resolves through the frame index to a
	// distinct node one level down; live counts and leaves match.
	seen := map[*Node]bool{}
	found := refTable{}
	var mapped [3]int
	var visit func(n *Node, vaBase mem.VAddr)
	visit = func(n *Node, vaBase mem.VAddr) {
		seen[n] = true
		live := 0
		for i := 0; i < mem.EntriesPerNode; i++ {
			pte := n.Entry(i)
			if !pte.Present() {
				continue
			}
			live++
			va := vaBase | mem.VAddr(uint64(i)<<mem.LevelShift(n.Level))
			if n.Level == 1 || pte.Huge() {
				size := mem.PageSize(n.Level - 1)
				found[va] = refLeaf{size, pte}
				mapped[size]++
				continue
			}
			child, ok := pool.NodeAt(pte.Frame())
			if !ok || child.Base != pte.Frame() || child.Level != n.Level-1 {
				t.Fatalf("level-%d entry %d of node %#x names frame %#x, which is not a level-%d node", n.Level, i, uint64(n.Base), uint64(pte.Frame()), n.Level-1)
			}
			if seen[child] {
				t.Fatalf("node %#x reached from two parents", uint64(child.Base))
			}
			visit(child, va)
		}
		if live != n.live {
			t.Fatalf("node %#x holds %d entries, counts %d", uint64(n.Base), live, n.live)
		}
		if live == 0 && n != root {
			t.Fatalf("empty level-%d node %#x survived a prune", n.Level, uint64(n.Base))
		}
	}
	visit(root, 0)
	if got := pool.NodeCount(); got != len(seen) {
		t.Fatalf("NodeCount = %d, but %d nodes are reachable", got, len(seen))
	}
	if len(found) != len(ref) {
		t.Fatalf("table holds %d leaves, reference %d", len(found), len(ref))
	}
	for va, want := range ref {
		if got, ok := found[va]; !ok || got != want {
			t.Fatalf("leaf %#x = %+v (present %v), want %+v", uint64(va), got, ok, want)
		}
	}
	if mapped != tbl.Mapped {
		t.Fatalf("Mapped = %v, leaves %v", tbl.Mapped, mapped)
	}

	// Translation: probe every page of the VA grid in ascending order.
	fresh := tbl.Cursor()
	steps := make([]Step, 0, mem.Levels5)
	for b := 0; b < 256; b++ {
		va := fuzzVA(byte(b), mem.Size4K) + 0x123
		base, l, mappedVA := ref.cover(va)
		var wantPA mem.PAddr
		if mappedVA {
			wantPA = l.pte.Frame() + mem.PAddr(va-base)
		}
		pa, size, ok := tbl.Lookup(va)
		if ok != mappedVA || pa != wantPA || size != l.size {
			t.Fatalf("Lookup(%#x) = %#x %v %v, want %#x %v %v", uint64(va), uint64(pa), size, ok, uint64(wantPA), l.size, mappedVA)
		}
		for _, c := range []*Cursor{cur, &fresh} {
			if cpa, csize, cok := c.Lookup(va); cpa != pa || csize != size || cok != ok {
				t.Fatalf("cursor Lookup(%#x) = %#x %v %v, table %#x %v %v", uint64(va), uint64(cpa), csize, cok, uint64(pa), size, ok)
			}
		}
		if pte, ok := tbl.LeafPTE(va); ok != mappedVA || pte != l.pte {
			t.Fatalf("LeafPTE(%#x) = %#x %v, want %#x", uint64(va), uint64(pte), ok, uint64(l.pte))
		}
		r := tbl.WalkInto(va, steps[:0])
		if r.OK != ok || r.PA != pa || r.Size != size || r.PTE != l.pte {
			t.Fatalf("Walk(%#x) = %+v, Lookup %#x %v %v", uint64(va), r, uint64(pa), size, ok)
		}
		requireRootWalk(t, tbl, va)
		if ok && len(r.Steps) != tbl.Levels()-size.LeafLevel()+1 {
			t.Fatalf("Walk(%#x) took %d steps for a %v leaf", uint64(va), len(r.Steps), size)
		}
		last := tbl.Levels() - len(r.Steps) + 1
		for i, s := range r.Steps {
			n, ok := pool.NodeAt(s.Addr)
			if s.Level != tbl.Levels()-i || !ok || n.Level != s.Level || n.EntryAddr(mem.Index(va, s.Level)) != s.Addr {
				t.Fatalf("Walk(%#x) step %d = %+v does not fetch va's entry of a level-%d node", uint64(va), i, s, tbl.Levels()-i)
			}
		}
		for level := 1; level <= tbl.Levels(); level++ {
			n := tbl.NodeForLevel(va, level)
			if (n != nil) != (level >= last) {
				t.Fatalf("NodeForLevel(%#x, %d) = %v, walk reached level %d", uint64(va), level, n, last)
			}
			if n != nil && n.EntryAddr(mem.Index(va, level)) != r.Steps[tbl.Levels()-level].Addr {
				t.Fatalf("NodeForLevel(%#x, %d) is not the node the walk fetched from", uint64(va), level)
			}
		}
	}
}
