package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"repro/internal/grid"
)

func TestHashTextIsSHA256OfText(t *testing.T) {
	for _, text := range []string{"", "pimtrace v1\n", "pimtrace v1\ngrid 2 2\ndata 1\nwindow\nref 0 0 1\n"} {
		if got, want := HashText(text), TextKey(sha256.Sum256([]byte(text))); got != want {
			t.Errorf("HashText(%q) = %x, want %x", text, got, want)
		}
	}
}

func aliasKey(i int) TextKey {
	var k TextKey
	binary.LittleEndian.PutUint64(k[:], uint64(i))
	return k
}

// The alias answers what was added, counts every lookup exactly once,
// holds at most aliasCapacity entries, and forgets the oldest first.
func TestTextAliasBoundedFIFO(t *testing.T) {
	a := NewTextAlias()
	sum := Summary{Fingerprint: Fingerprint{1}, Shape: Shape{Grid: grid.Square(2), NumData: 3, NumWindows: 4}}
	if _, ok := a.Lookup(aliasKey(0)); ok {
		t.Fatal("empty alias reported a hit")
	}
	a.Add(aliasKey(0), sum)
	a.Add(aliasKey(0), Summary{}) // a repeat add keeps the first summary
	if got, ok := a.Lookup(aliasKey(0)); !ok || got != sum {
		t.Fatalf("Lookup after Add = %+v, %v; want %+v, true", got, ok, sum)
	}
	if a.Hits() != 1 || a.Misses() != 1 {
		t.Fatalf("hits %d misses %d, want 1 and 1", a.Hits(), a.Misses())
	}

	const extra = 10
	for i := 1; i < aliasCapacity+extra; i++ {
		a.Add(aliasKey(i), sum)
	}
	if a.Len() != aliasCapacity {
		t.Fatalf("Len = %d after %d adds, want the bound %d", a.Len(), aliasCapacity+extra, aliasCapacity)
	}
	for i := 0; i < extra; i++ {
		if _, ok := a.Lookup(aliasKey(i)); ok {
			t.Fatalf("key %d, among the %d oldest, survived a full alias", i, extra)
		}
	}
	for _, i := range []int{extra, aliasCapacity, aliasCapacity + extra - 1} {
		if _, ok := a.Lookup(aliasKey(i)); !ok {
			t.Fatalf("key %d, among the newest %d, was evicted", i, aliasCapacity)
		}
	}
}
