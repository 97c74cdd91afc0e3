package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	var b Bits
	if b.Get(0) || b.Count() != 0 {
		t.Fatal("zero value must be empty")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(200)
	for _, i := range []int{0, 63, 64, 200} {
		if !b.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(199) {
		t.Error("unset bit reads set")
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d, want 4", b.Count())
	}
	b.Clear(64)
	if b.Get(64) {
		t.Error("Clear failed")
	}
	b.Clear(100000) // beyond length: no-op
	if b.Count() != 3 {
		t.Errorf("Count after clear = %d", b.Count())
	}
}

func TestClearAllAndString(t *testing.T) {
	var b Bits
	b.Set(0)
	b.Set(65)
	if got := b.String(); got != "{0,65}" {
		t.Errorf("String = %q", got)
	}
	b.ClearAll()
	if b.Count() != 0 {
		t.Error("ClearAll left bits")
	}
	if got := b.String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestSizeBytes(t *testing.T) {
	var b Bits
	if b.SizeBytes() != 0 {
		t.Error("empty bitset should report 0 bytes")
	}
	b.Set(200)
	if b.SizeBytes() != 4*8 {
		t.Errorf("SizeBytes = %d, want 32", b.SizeBytes())
	}
}

func TestOrAndEachNotIn(t *testing.T) {
	var a, b Bits
	a.Set(1)
	a.Set(70)
	b.Set(3)
	b.Set(200)
	a.Or(&b)
	if got := a.String(); got != "{1,3,70,200}" {
		t.Fatalf("Or = %s", got)
	}
	var mask Bits
	mask.Set(3)
	mask.Set(70)
	var got []int
	a.EachNotIn(&mask, func(i int) {
		got = append(got, i)
		a.Clear(i)
	})
	if len(got) != 2 || got[0] != 1 || got[1] != 200 {
		t.Errorf("EachNotIn = %v, want [1 200]", got)
	}
	if s := a.String(); s != "{3,70}" {
		t.Errorf("after clearing visited bits: %s", s)
	}
}

// Property: a Bits behaves exactly like a map[int]bool under a random
// operation sequence.
func TestBitsMatchesMapModel(t *testing.T) {
	check := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var b Bits
		model := map[int]bool{}
		for i := 0; i < int(n)+10; i++ {
			bit := rng.Intn(300)
			switch rng.Intn(3) {
			case 0:
				b.Set(bit)
				model[bit] = true
			case 1:
				b.Clear(bit)
				delete(model, bit)
			case 2:
				if b.Get(bit) != model[bit] {
					return false
				}
			}
		}
		count := 0
		for range model {
			count++
		}
		return b.Count() == count
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
