package cost

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/trace"
)

// tableCodecMagic is the version tag leading every encoded residence
// table. Bumping it invalidates all previously encoded payloads instead
// of letting an incompatible layout decode into garbage: a stale
// payload fails loudly with a wrong-magic error, and a shard falls back
// to a local build.
const tableCodecMagic = "pimtab-v2\n"

// tableCodecHeaderLen is the byte length of the fixed header: magic,
// the trace fingerprint the table was built from, and the three shape
// fields as 8-byte little-endian unsigned integers.
const tableCodecHeaderLen = len(tableCodecMagic) + len(trace.Fingerprint{}) + 3*8

// MaxTableCodecCells is the codec's hard cell ceiling (1 GiB of flat
// cells). Decoders never exceed it even when asked for a larger budget.
const MaxTableCodecCells = (1 << 30) / 8

// clampTableCells maps a caller's cell budget onto the codec's range:
// <= 0 or over the hard ceiling means the ceiling.
func clampTableCells(maxCells int64) int64 {
	if maxCells <= 0 || maxCells > MaxTableCodecCells {
		return MaxTableCodecCells
	}
	return maxCells
}

// MaxTableBytes is the longest payload EncodeTable can produce for a
// table within the cell budget (clamped like DecodeTable's): the header
// plus one maximal varint per cell. A reader can refuse any longer body
// before decoding it.
func MaxTableBytes(maxCells int64) int64 {
	return int64(tableCodecHeaderLen) + binary.MaxVarintLen64*clampTableCells(maxCells)
}

// zigzag folds signed deltas into unsigned varint space: small
// magnitudes of either sign encode short.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// EncodeTable serializes a residence table into the version-tagged
// pimtab-v2 format, the one codec tables are shipped and stored in:
//
//	magic "pimtab-v2\n"
//	fingerprint            (32 bytes, the trace the table was built from)
//	numWindows, numData, numProcs  (8-byte little endian each)
//	cells                  (one uvarint per cell, zig-zag encoded,
//	                        row-major in the (w*nd+d)*np+c layout)
//
// Within each np-cell row a cell is the delta from the previous cell;
// each row's first cell is the delta from the previous row's first cell
// (the very first is absolute). Residence costs vary smoothly along
// both axes, so paper-shaped tables land well under 8 bytes/cell. The
// fingerprint rides inside the payload (not just in the request URL) so
// a decoder can refuse a table that was built for a different trace
// even if a proxy or a buggy peer mixed responses up.
func EncodeTable(fp trace.Fingerprint, t ResidenceTable) []byte {
	return AppendTable(make([]byte, 0, tableCodecHeaderLen+2*t.nw*t.nd*t.np), fp, t)
}

// AppendTable appends the encoding of t to dst and returns the extended
// slice, so callers with a reusable buffer avoid the allocation
// EncodeTable makes.
func AppendTable(dst []byte, fp trace.Fingerprint, t ResidenceTable) []byte {
	dst = append(dst, tableCodecMagic...)
	dst = append(dst, fp[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.nw))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.nd))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.np))
	cells, np := t.cells, t.np
	var rowHead int64
	for base := 0; base < len(cells); base += np {
		prev := rowHead
		for i, c := range cells[base : base+np] {
			dst = binary.AppendUvarint(dst, zigzag(c-prev))
			prev = c
			if i == 0 {
				rowHead = c
			}
		}
	}
	return dst
}

// DecodeTable parses a payload produced by EncodeTable under a cell
// budget (service.Config.MaxTableCells on every table-accepting path;
// <= 0 falls back to the codec's hard ceiling), returning the
// fingerprint it was built for and the reconstructed table. A shape
// exceeding the budget is rejected at the header, before any
// allocation, so a shipped table cannot commit a shard to memory its
// own trace guards would refuse. It never panics: a wrong magic, an
// impossible shape, a truncated cell stream or trailing junk all yield
// descriptive errors.
func DecodeTable(data []byte, maxCells int64) (trace.Fingerprint, ResidenceTable, error) {
	var fp trace.Fingerprint
	if len(data) < tableCodecHeaderLen {
		return fp, ResidenceTable{}, fmt.Errorf("cost: table payload %d bytes, header needs %d", len(data), tableCodecHeaderLen)
	}
	if string(data[:len(tableCodecMagic)]) != tableCodecMagic {
		return fp, ResidenceTable{}, fmt.Errorf("cost: table payload has wrong magic %q", data[:len(tableCodecMagic)])
	}
	data = data[len(tableCodecMagic):]
	copy(fp[:], data[:len(fp)])
	data = data[len(fp):]
	unw := binary.LittleEndian.Uint64(data[0:])
	und := binary.LittleEndian.Uint64(data[8:])
	unp := binary.LittleEndian.Uint64(data[16:])
	rest := data[24:]

	// Reject shapes that cannot be a real table before multiplying, so
	// an adversarial header cannot overflow the cell count into a small
	// allocation that the cell loop then indexes past.
	const maxDim = math.MaxInt32
	if unw > maxDim || und > maxDim || unp > maxDim {
		return fp, ResidenceTable{}, fmt.Errorf("cost: table shape %dx%dx%d out of range", unw, und, unp)
	}
	maxCells = clampTableCells(maxCells)
	if unw*und*unp > uint64(maxCells) {
		return fp, ResidenceTable{}, fmt.Errorf("cost: table shape %dx%dx%d exceeds %d-cell limit", unw, und, unp, maxCells)
	}

	t := NewResidenceTable(int(unw), int(und), int(unp))
	cells, np := t.cells, t.np
	var rowHead int64
	for base := 0; base < len(cells); base += np {
		prev := rowHead
		for i := range np {
			u, n := binary.Uvarint(rest)
			if n <= 0 {
				return fp, ResidenceTable{}, fmt.Errorf("cost: table cell stream truncated at cell %d of %d", base+i, len(cells))
			}
			rest = rest[n:]
			prev += unzigzag(u)
			cells[base+i] = prev
			if i == 0 {
				rowHead = prev
			}
		}
	}
	if len(rest) != 0 {
		return fp, ResidenceTable{}, fmt.Errorf("cost: table payload carries %d trailing bytes after %d cells", len(rest), len(cells))
	}
	return fp, t, nil
}

// CheckShape reports whether t has the windows x data x processors
// shape tr implies. It is the one adoption check every path that takes
// a table it did not build from tr itself — peer fill, replica prefill,
// cold-tier promotion, session restore — runs before using it.
func (t ResidenceTable) CheckShape(tr *trace.Trace) error {
	if t.nw != tr.NumWindows() || t.nd != tr.NumData || t.np != tr.Grid.NumProcs() {
		return fmt.Errorf("table shape %dx%dx%d does not match trace %dx%dx%d",
			t.nw, t.nd, t.np, tr.NumWindows(), tr.NumData, tr.Grid.NumProcs())
	}
	return nil
}
