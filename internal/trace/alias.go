package trace

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
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

// TextKey is the SHA-256 of a trace's raw text, the key of a TextAlias.
// Unlike a Fingerprint it is not canonical: two texts that differ only
// in comments or whitespace have distinct keys and the same
// fingerprint.
type TextKey [sha256.Size]byte

// HashText returns the alias key of a trace text. It hashes the
// string's bytes in place (the hash only reads them), so a 100 KB trace
// costs no copy.
func HashText(text string) TextKey {
	return sha256.Sum256(unsafe.Slice(unsafe.StringData(text), len(text)))
}

// aliasCapacity bounds a TextAlias. An entry is about 200 bytes with
// its map slot, so a full alias stays under 1 MiB.
const aliasCapacity = 4096

// TextAlias maps the hash of a raw trace text to the Summary a decode
// of that text produced, so a process that sees the same text again
// skips the decode and the fingerprint. It holds at most aliasCapacity
// entries and forgets the oldest insertion first. Callers add only
// texts that decoded cleanly (and passed whatever admission check they
// apply), so a malformed text is never answered from the alias.
//
// Lookup counts every call as a hit or a miss. A TextAlias is safe for
// concurrent use; the zero value is not usable, create one with
// NewTextAlias.
type TextAlias struct {
	mu    sync.Mutex
	m     map[TextKey]Summary
	order []TextKey // insertion ring; next is the slot to overwrite
	next  int

	hits, misses atomic.Uint64
}

// NewTextAlias returns an empty alias.
func NewTextAlias() *TextAlias {
	return &TextAlias{m: make(map[TextKey]Summary)}
}

// Lookup returns the summary stored for k, counting a hit or a miss.
func (a *TextAlias) Lookup(k TextKey) (Summary, bool) {
	a.mu.Lock()
	s, ok := a.m[k]
	a.mu.Unlock()
	if ok {
		a.hits.Add(1)
	} else {
		a.misses.Add(1)
	}
	return s, ok
}

// Add records k's summary, evicting the oldest entry when full. A key
// already present is left as is: the same text always decodes to the
// same summary.
func (a *TextAlias) Add(k TextKey, s Summary) {
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
	a.m[k] = s
}

// Len returns the number of entries held.
func (a *TextAlias) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.m)
}

// Hits returns the number of lookups that found their key.
func (a *TextAlias) Hits() uint64 { return a.hits.Load() }

// Misses returns the number of lookups that did not.
func (a *TextAlias) Misses() uint64 { return a.misses.Load() }
