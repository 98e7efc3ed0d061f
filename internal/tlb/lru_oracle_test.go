package tlb

import (
	"slices"
	"testing"
)

// stampAssoc is the reference model for assoc: the stamp-based LRU map the
// recency-ordered one replaced, miss stash included. Every way carries the
// clock value of its last touch; a fill takes the first empty way or else
// the way with the smallest stamp.
//
// One deliberate difference from that code: its insert stopped scanning at
// the first empty way, so re-inserting a key resident behind a hole left
// by invalidate stored a second copy. No simulator path reaches that state
// (TLB.Insert follows a full miss, and PWCs and nested caches are never
// invalidated), a recency-ordered set cannot represent it, and here insert
// checks the whole set for the key before it takes an empty way.
type stampAssoc struct {
	ents  []uint64 // (key+1, val, stamp) triplets; key 0 = invalid
	wspan int
	nsets uint64
	now   uint64

	missKey    uint64
	missBase   int
	missVictim int
}

func newStampAssoc(entries, ways int) *stampAssoc {
	return &stampAssoc{ents: make([]uint64, entries*3), wspan: ways * 3, nsets: uint64(entries / ways)}
}

func (a *stampAssoc) set(key uint64) int {
	return int(((key*0x9e3779b97f4a7c15)>>32)%a.nsets) * a.wspan
}

func (a *stampAssoc) lookup(key uint64) (uint64, bool) {
	a.now++
	base := a.set(key)
	set := a.ents[base : base+a.wspan]
	victim, oldest, empty := 0, ^uint64(0), -1
	for w := 0; w < len(set); w += 3 {
		k := set[w]
		if k == key+1 {
			set[w+2] = a.now
			a.missKey = 0
			return set[w+1], true
		}
		if k == 0 {
			if empty < 0 {
				empty = w
			}
			continue
		}
		if s := set[w+2]; s < oldest {
			victim, oldest = w, s
		}
	}
	if empty >= 0 {
		victim = empty
	}
	a.missKey, a.missBase, a.missVictim = key+1, base, victim
	return 0, false
}

func (a *stampAssoc) insert(key, val uint64) {
	a.now++
	if a.missKey == key+1 {
		a.missKey = 0
		w := a.missBase + a.missVictim
		a.ents[w], a.ents[w+1], a.ents[w+2] = key+1, val, a.now
		return
	}
	a.missKey = 0
	base := a.set(key)
	set := a.ents[base : base+a.wspan]
	victim, oldest := 0, ^uint64(0)
	for w := 0; w < len(set); w += 3 {
		if set[w] == key+1 {
			set[w+1], set[w+2] = val, a.now
			return
		}
		if set[w] == 0 {
			if oldest != 0 {
				victim, oldest = w, 0
			}
			continue
		}
		if s := set[w+2]; s < oldest {
			victim, oldest = w, s
		}
	}
	set[victim], set[victim+1], set[victim+2] = key+1, val, a.now
}

func (a *stampAssoc) invalidate(key uint64) {
	a.missKey = 0
	base := a.set(key)
	set := a.ents[base : base+a.wspan]
	for w := 0; w < len(set); w += 3 {
		if set[w] == key+1 {
			set[w] = 0
		}
	}
}

func (a *stampAssoc) flush() {
	a.missKey = 0
	for i := 0; i < len(a.ents); i += 3 {
		a.ents[i] = 0
	}
}

// recency returns set si's valid (key+1, val) pairs, most recently stamped
// first, flattened.
func (a *stampAssoc) recency(si int) []uint64 {
	set := a.ents[si*a.wspan : (si+1)*a.wspan]
	var idx []int
	for w := 0; w < len(set); w += 3 {
		if set[w] != 0 {
			idx = append(idx, w)
		}
	}
	slices.SortFunc(idx, func(x, y int) int { return int(set[y+2]) - int(set[x+2]) })
	var out []uint64
	for _, w := range idx {
		out = append(out, set[w], set[w+1])
	}
	return out
}

// requireSameAssoc fails unless every set of a holds exactly ref's entries
// in ref's stamp order, as a prefix followed only by empty ways.
func requireSameAssoc(t *testing.T, a *assoc, ref *stampAssoc) {
	t.Helper()
	for si := 0; si < len(a.keys)/a.ways; si++ {
		ks := a.keys[si*a.ways : (si+1)*a.ways]
		vs := a.vals[si*a.ways : (si+1)*a.ways]
		var got []uint64
		n := 0
		for n < len(ks) && ks[n] != 0 {
			got = append(got, ks[n], vs[n])
			n++
		}
		for _, k := range ks[n:] {
			if k != 0 {
				t.Fatalf("set %d: valid key after an empty way: %v", si, ks)
			}
		}
		if want := ref.recency(si); !slices.Equal(got, want) {
			t.Fatalf("set %d: (key+1, val) %v, reference recency order %v", si, got, want)
		}
	}
}

// assocOracleGeometries are (entries, ways) shapes: 1-way, set counts that
// are not powers of two (the modulo path, including the nested cache's 19
// sets), and the Table 3 TLB and PWC shapes, full and scaled by 16.
var assocOracleGeometries = [][2]int{
	{1, 1}, {4, 1}, {12, 4}, {38, 2},
	{2, 2}, {4, 4}, {32, 4},
	{64, 4}, {1536, 12}, {96, 12},
}

// oracleKeys returns keys that hash into sets 0 and 1, enough of them to
// overflow both sets several times.
func oracleKeys(a *assoc) []uint64 {
	var keys []uint64
	for k := uint64(0); len(keys) < 3*a.ways+2; k++ {
		ks, _ := a.set(k)
		if base := cap(a.keys) - cap(ks); base <= a.ways {
			keys = append(keys, k)
		}
	}
	return keys
}

// FuzzAssocLRUEquiv drives the recency-ordered assoc and the stamp-LRU
// reference through the same random lookup/insert/invalidate/flush mix and
// requires identical lookup outcomes and per-set recency order (keys and
// values) after every operation.
func FuzzAssocLRUEquiv(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 1, 1, 0, 1, 2, 1, 1, 2, 1, 3, 1, 1})
	f.Add(uint8(5), []byte{1, 0, 1, 1, 1, 2, 1, 3, 2, 1, 1, 4, 1, 1, 0, 3, 3, 0, 0, 2})
	f.Add(uint8(9), []byte{1, 9, 1, 8, 0, 9, 2, 8, 1, 7, 1, 8, 0, 8, 0, 7})
	// Fill every pooled key (several times the ways per set), probing and
	// punching holes as it goes.
	for g := range assocOracleGeometries {
		var ops []byte
		for i := byte(0); i < 150; i++ {
			ops = append(ops, []byte{1, i, 0, i / 2, 1, i + 3, 2, i / 3, 0, i}[2*(i%5):2*(i%5)+2]...)
		}
		f.Add(uint8(g), ops)
	}
	f.Fuzz(func(t *testing.T, geom uint8, ops []byte) {
		g := assocOracleGeometries[int(geom)%len(assocOracleGeometries)]
		a, err := newAssoc(g[0], g[1])
		if err != nil {
			t.Fatal(err)
		}
		ref := newStampAssoc(g[0], g[1])
		keys := oracleKeys(a)
		for i := 0; len(ops) >= 2; i++ {
			op, k := ops[0], keys[int(ops[1])%len(keys)]
			ops = ops[2:]
			switch op % 4 {
			case 0:
				v, ok := a.lookup(k)
				rv, rok := ref.lookup(k)
				if v != rv || ok != rok {
					t.Fatalf("op %d: lookup(%d) = (%d, %v), reference (%d, %v)", i, k, v, ok, rv, rok)
				}
			case 1:
				val := uint64(i)<<8 | uint64(op)
				a.insert(k, val)
				ref.insert(k, val)
			case 2:
				a.invalidate(k)
				ref.invalidate(k)
			case 3:
				if op%16 == 3 { // keep flushes rare so sets fill up
					a.flush()
					ref.flush()
				}
			}
			requireSameAssoc(t, a, ref)
		}
	})
}
