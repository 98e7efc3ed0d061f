package pagetable

import (
	"math/rand"
	"testing"

	"dmt/internal/mem"
)

// TestCursorMatchesTable drives twin tables through the same random
// map/unmap/A-D sequence, one through a long-lived Cursor and one through
// Table's own methods, and requires identical answers and identical tables
// (node placement included) after every operation.
func TestCursorMatchesTable(t *testing.T) {
	const window = mem.VAddr(0x4000_0000)
	const spans = 4
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := newTestTable(t), newTestTable(t)
		cur := a.Cursor()
		randVA := func() mem.VAddr {
			return window + mem.VAddr(rng.Intn(spans*mem.EntriesPerNode))<<mem.PageShift4K
		}
		for op := 0; op < 400; op++ {
			va := randVA()
			pa := mem.PAddr(rng.Intn(1<<20)) << mem.PageShift4K
			switch r := rng.Intn(11); {
			case r < 6:
				errA := cur.Map(va, pa, mem.Size4K, mem.PTEWritable)
				errB := b.Map(va, pa, mem.Size4K, mem.PTEWritable)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("seed %d op %d: 4K map %#x: cursor err %v, table err %v", seed, op, uint64(va), errA, errB)
				}
			case r < 7:
				hva := mem.AlignDown(va, mem.PageBytes2M)
				hpa := mem.AlignDownP(pa, mem.PageBytes2M)
				errA := cur.Map(hva, hpa, mem.Size2M, mem.PTEWritable)
				errB := b.Map(hva, hpa, mem.Size2M, mem.PTEWritable)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("seed %d op %d: 2M map: cursor err %v, table err %v", seed, op, errA, errB)
				}
			case r < 9:
				size := mem.Size4K
				if _, s, ok := b.Lookup(va); ok {
					size = s
				}
				base := mem.AlignDown(va, size.Bytes())
				errA, errB := a.Unmap(base, size), b.Unmap(base, size)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("seed %d op %d: unmap: %v vs %v", seed, op, errA, errB)
				}
				cur.Reset()
			case r < 10:
				// A run fill must equal per-page Map + SetAccessed(write).
				end := va + mem.VAddr(rng.Intn(600))<<mem.PageShift4K
				want := 0
				if b.NodeForLevel(va, 1) != nil {
					spanEnd := mem.AlignDown(va, mem.PageBytes2M) + mem.PageBytes2M
					for p := va; p < end && p < spanEnd; p += mem.PageBytes4K {
						if _, _, ok := b.Lookup(p); ok {
							break
						}
						want++
					}
				}
				n := cur.AbsentRun(va, end)
				if n != want {
					t.Fatalf("seed %d op %d: AbsentRun(%#x, %#x) = %d, want %d", seed, op, uint64(va), uint64(end), n, want)
				}
				if n == 0 {
					break
				}
				pas := make([]mem.PAddr, n)
				for i := range pas {
					pas[i] = pa + mem.PAddr(i)<<mem.PageShift4K
					page := va + mem.VAddr(i)<<mem.PageShift4K
					if err := b.Map(page, pas[i], mem.Size4K, mem.PTEWritable); err != nil {
						t.Fatal(err)
					}
					b.SetAccessed(page, true)
				}
				cur.MapRun(va, pas, mem.PTEWritable|mem.PTEAccessed|mem.PTEDirty)
			default:
				write := rng.Intn(2) == 0
				if gotA, gotB := cur.SetAccessed(va, write), b.SetAccessed(va, write); gotA != gotB {
					t.Fatalf("seed %d op %d: SetAccessed %v vs %v", seed, op, gotA, gotB)
				}
			}
			probe := randVA() + mem.VAddr(rng.Intn(mem.PageBytes4K))
			paA, sizeA, okA := cur.Lookup(probe)
			paB, sizeB, okB := b.Lookup(probe)
			if paA != paB || sizeA != sizeB || okA != okB {
				t.Fatalf("seed %d op %d: Lookup(%#x) cursor (%#x,%v,%v) table (%#x,%v,%v)",
					seed, op, uint64(probe), uint64(paA), sizeA, okA, uint64(paB), sizeB, okB)
			}
			span := mem.AlignDown(probe, mem.PageBytes2M)
			anyMapped := false
			for off := mem.VAddr(0); off < mem.PageBytes2M; off += mem.PageBytes4K {
				if _, _, ok := b.Lookup(span + off); ok {
					anyMapped = true
					break
				}
			}
			if got := cur.SpanMapped(probe); got != anyMapped {
				t.Fatalf("seed %d op %d: SpanMapped(%#x) = %v, 512 lookups say %v", seed, op, uint64(span), got, anyMapped)
			}
		}
		assertSameTables(t, a, b, window, spans)
	}
}

func assertSameTables(t *testing.T, a, b *Table, window mem.VAddr, spans int) {
	t.Helper()
	if a.Mapped != b.Mapped || a.Pool().NodeCount() != b.Pool().NodeCount() {
		t.Fatalf("Mapped %v/%v, nodes %d/%d", a.Mapped, b.Mapped, a.Pool().NodeCount(), b.Pool().NodeCount())
	}
	for va := window; va < window+mem.VAddr(spans)*mem.PageBytes2M; va += mem.PageBytes4K {
		ra, rb := a.Walk(va), b.Walk(va)
		if ra.OK != rb.OK || ra.PTE != rb.PTE || len(ra.Steps) != len(rb.Steps) {
			t.Fatalf("walk %#x differs: %+v vs %+v", uint64(va), ra, rb)
		}
		for i := range ra.Steps {
			if ra.Steps[i] != rb.Steps[i] {
				t.Fatalf("walk %#x step %d: %+v vs %+v", uint64(va), i, ra.Steps[i], rb.Steps[i])
			}
		}
	}
}

func TestCursorOneGiBLeaf(t *testing.T) {
	tbl := newTestTable(t)
	if err := tbl.Map(0x4000_0000, 0x8000_0000, mem.Size1G, 0); err != nil {
		t.Fatal(err)
	}
	cur := tbl.Cursor()
	va := mem.VAddr(0x4000_0000 + 3*mem.PageBytes2M + 0x1234)
	pa, size, ok := cur.Lookup(va)
	if !ok || size != mem.Size1G || pa != 0x8000_0000+3*mem.PageBytes2M+0x1234 {
		t.Fatalf("Lookup in 1G leaf = (%#x,%v,%v)", uint64(pa), size, ok)
	}
	if !cur.SpanMapped(va) {
		t.Fatal("a 1G leaf must count as mapping the span")
	}
	if err := cur.Map(va&^0xfff, 0x1000, mem.Size4K, 0); err != ErrAlreadyMapped {
		t.Fatalf("4K map under a 1G leaf: err %v, want ErrAlreadyMapped", err)
	}
}
