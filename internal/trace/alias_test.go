package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"repro/internal/grid"
)

// An alias key is SHA-256 over its domain tag plus the bytes: equal
// bytes in the two domains never share a key.
func TestHashTextIsSHA256OfText(t *testing.T) {
	for _, text := range []string{"", "pimtrace v1\n", "pimtrace v1\ngrid 2 2\ndata 1\nwindow\nref 0 0 1\n"} {
		if got, want := HashText(text).sum, sha256.Sum256([]byte("t"+text)); got != want {
			t.Errorf("HashText(%q) = %x, want %x", text, got, want)
		}
		if got, want := HashBody([]byte(text)).sum, sha256.Sum256([]byte("b"+text)); got != want {
			t.Errorf("HashBody(%q) = %x, want %x", text, got, want)
		}
		if HashText(text) == HashBody([]byte(text)) {
			t.Errorf("text and body keys of %q coincide", text)
		}
	}
}

func testKey(domain byte, i int) AliasKey {
	k := AliasKey{domain: domain}
	binary.LittleEndian.PutUint64(k.sum[:], uint64(i))
	return k
}

func aliasKey(i int) AliasKey { return testKey(domainText, i) }

// The alias answers what was added, holds at most aliasCapacity
// entries, and forgets the oldest first.
func TestTextAliasBoundedFIFO(t *testing.T) {
	a := NewAlias[Summary]()
	sum := Summary{Fingerprint: Fingerprint{1}, Shape: Shape{Grid: grid.Square(2), NumData: 3, NumWindows: 4}}
	if _, ok := a.Lookup(aliasKey(0)); ok {
		t.Fatal("empty alias reported a hit")
	}
	a.Add(aliasKey(0), sum)
	a.Add(aliasKey(0), Summary{}) // a repeat add keeps the first summary
	if got, ok := a.Lookup(aliasKey(0)); !ok || got != sum {
		t.Fatalf("Lookup after Add = %+v, %v; want %+v, true", got, ok, sum)
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

// The two key domains are separate keys in one map under one bound: a
// text entry never answers its body-domain twin, and body entries push
// the oldest text entry out.
func TestAliasDomainsShareOneBound(t *testing.T) {
	a := NewAlias[int]()
	body, text := testKey(domainBody, 1), testKey(domainText, 1)
	a.Add(text, 7)
	if _, ok := a.Lookup(body); ok {
		t.Fatal("a text entry answered its body-domain twin")
	}
	a.Add(body, 9)
	if v, ok := a.Lookup(text); !ok || v != 7 {
		t.Fatalf("text lookup = %d, %v; want 7, true", v, ok)
	}
	if v, ok := a.Lookup(body); !ok || v != 9 {
		t.Fatalf("body lookup = %d, %v; want 9, true", v, ok)
	}
	for i := 2; i < aliasCapacity+2; i++ {
		a.Add(testKey(domainBody, i), i)
	}
	if a.Len() != aliasCapacity {
		t.Fatalf("Len = %d, want the shared bound %d", a.Len(), aliasCapacity)
	}
	if _, ok := a.Lookup(text); ok {
		t.Fatal("the oldest (text) entry survived a full alias of body entries")
	}
}
