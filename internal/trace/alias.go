package trace

import (
	"crypto/sha256"
	"sync"
	"unsafe"

	"repro/internal/grid"
)

// Shape is a trace's declared dimensions: enough to bound the residence
// table it implies and to describe it in a response, without its
// events.
type Shape struct {
	Grid       grid.Grid
	NumData    int
	NumWindows int
}

// Shape returns the trace's declared dimensions.
func (t *Trace) Shape() Shape {
	return Shape{Grid: t.Grid, NumData: t.NumData, NumWindows: t.NumWindows()}
}

// Summary is what decoding and fingerprinting a trace text establishes
// about it: its canonical fingerprint and its shape.
type Summary struct {
	Fingerprint Fingerprint
	Shape
}

// Alias key domains: the tag byte hashed ahead of the bytes, so a body
// and a trace text with equal bytes still get distinct keys.
const (
	domainBody byte = 'b'
	domainText byte = 't'
)

// AliasKey is the key of an Alias: SHA-256 over a one-byte domain tag
// plus either a raw request body (HashBody) or a raw trace text
// (HashText). Unlike a Fingerprint it is not canonical: two texts that
// differ only in comments or whitespace, or two bodies that differ only
// in JSON spacing or field order, have distinct keys.
type AliasKey struct {
	domain byte
	sum    [sha256.Size]byte
}

// HashBody returns the alias key of a raw request body.
func HashBody(body []byte) AliasKey {
	return hashKey(domainBody, body)
}

// HashText returns the alias key of a trace text. It hashes the
// string's bytes in place (the hash only reads them), so a 100 KB trace
// costs no copy.
func HashText(text string) AliasKey {
	return hashKey(domainText, unsafe.Slice(unsafe.StringData(text), len(text)))
}

func hashKey(domain byte, b []byte) AliasKey {
	k := AliasKey{domain: domain}
	h := sha256.New()
	h.Write([]byte{domain})
	h.Write(b)
	h.Sum(k.sum[:0])
	return k
}

// aliasCapacity bounds an Alias. An entry is a few hundred bytes with
// its map slot, so a full alias stays around 1 MiB.
const aliasCapacity = 4096

// Alias maps the hash of a raw request body or trace text to what a
// decode of those bytes produced (at least a Summary), so a process that
// sees the same bytes again skips the decode and the fingerprint. One
// instance holds both key domains. It holds at most aliasCapacity
// entries and forgets the oldest insertion first. Callers add only bytes
// that decoded cleanly (and passed whatever admission check they
// apply), so a malformed input is never answered from the alias. An
// Alias counts nothing: its callers know their lookup order and count
// each request's outcome themselves. It is safe for concurrent use; the
// zero value is not usable, create one with NewAlias.
type Alias[V any] struct {
	mu    sync.Mutex
	m     map[AliasKey]V
	order []AliasKey // insertion ring; next is the slot to overwrite
	next  int
}

// NewAlias returns an empty alias.
func NewAlias[V any]() *Alias[V] {
	return &Alias[V]{m: make(map[AliasKey]V)}
}

// Lookup returns the value stored for k.
func (a *Alias[V]) Lookup(k AliasKey) (V, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	v, ok := a.m[k]
	return v, ok
}

// Add records k's value, evicting the oldest entry when full. A key
// already present is left as is: the same bytes always decode to the
// same value.
func (a *Alias[V]) Add(k AliasKey, v V) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.m[k]; ok {
		return
	}
	if len(a.order) < aliasCapacity {
		a.order = append(a.order, k)
	} else {
		delete(a.m, a.order[a.next])
		a.order[a.next] = k
		a.next = (a.next + 1) % aliasCapacity
	}
	a.m[k] = v
}

// Len returns the number of entries held.
func (a *Alias[V]) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.m)
}
