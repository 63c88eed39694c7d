package service

import (
	"context"
	"errors"

	"repro/internal/grid"
	"repro/internal/trace"
)

// PrefillRequest asks a shard to adopt a trace's residence table from a
// peer before any client demands it — the write side of replicated
// ownership. The router sends it to a key's replica owners right after
// the primary serves the key, naming the primary in the X-Pim-Peer
// header; the replica fetches the table over the same GET
// /table/{fingerprint} codec peer fill uses. The request names the
// table by the trace's fingerprint (hex) and declared shape, which the
// router already holds from routing it; the trace itself never travels.
type PrefillRequest struct {
	Fingerprint string `json:"fingerprint"`
	Width       int    `json:"width"`
	Height      int    `json:"height"`
	NumData     int    `json:"num_data"`
	NumWindows  int    `json:"num_windows"`

	// PeerHint is the base URL of the shard holding the table, set by
	// the HTTP layer from the X-Pim-Peer header — never from the body,
	// for the same reason as Request.PeerHint.
	PeerHint string `json:"-"`
}

// PrefillFor returns the prefill request naming fp's table of shape sh.
func PrefillFor(fp trace.Fingerprint, sh trace.Shape) PrefillRequest {
	return PrefillRequest{
		Fingerprint: fp.String(),
		Width:       sh.Grid.Width(),
		Height:      sh.Grid.Height(),
		NumData:     sh.NumData,
		NumWindows:  sh.NumWindows,
	}
}

// ErrNoPeerFill reports a prefill request on a service that has no
// peer-fill hook configured; the HTTP layer maps it to 501.
var ErrNoPeerFill = errors.New("service: peer fill not configured")

// prefillFetchError is a prefill whose fetch from the peer failed. The
// HTTP layer maps it to 502 even when the fetch timed out: the deadline
// that expired bounded the peer, not the caller.
type prefillFetchError struct {
	peer string
	err  error
}

func (e *prefillFetchError) Error() string {
	return "service: prefill from " + e.peer + ": " + e.err.Error()
}
func (e *prefillFetchError) Unwrap() error { return e.err }

// Prefill adopts the residence table req names from the hinted peer.
// No trace is decoded: the declared shape is checked against the cell
// budget before anything is fetched, and the fetched table must carry
// req's fingerprint and match that shape (Service.peerTable, the check
// every adopted table passes). It is deliberately asymmetric to
// Schedule's resolveTable: the fetch happens before the cache is
// touched, so a failed fetch strands no waiters and counts no cache
// miss; an already-resident (or in-flight) fingerprint is a cheap
// no-op. A successful adoption bumps tables_prefilled — never
// tables_built or peer_fills, which stay about demand traffic.
func (s *Service) Prefill(ctx context.Context, req PrefillRequest) error {
	if s.cfg.PeerFill == nil {
		return ErrNoPeerFill
	}
	if req.PeerHint == "" {
		return badRequest("prefill without %s header", PeerHintHeader)
	}
	fp, err := trace.ParseFingerprint(req.Fingerprint)
	if err != nil {
		return &RequestError{Err: err}
	}
	// grid.New panics on a non-positive dimension.
	if req.Width <= 0 || req.Height <= 0 || req.NumData < 0 || req.NumWindows < 0 {
		return badRequest("prefill shape %dx%d grid, %d data, %d windows: grid dimensions must be positive, counts non-negative",
			req.Width, req.Height, req.NumData, req.NumWindows)
	}
	sh := trace.Shape{Grid: grid.New(req.Width, req.Height), NumData: req.NumData, NumWindows: req.NumWindows}
	if err := s.checkTraceScale(sh); err != nil {
		return err
	}

	if err := s.enter(nil); err != nil {
		return err
	}
	defer s.wg.Done()

	if s.cache.resident(fp) {
		return nil // already resident (or building); nothing to transfer
	}

	table, err := s.peerTable(fp, sh, req.PeerHint)
	if err != nil {
		return &prefillFetchError{peer: req.PeerHint, err: err}
	}
	if s.cache.adopt(s.stages, fp, table) {
		s.tablesPrefilled.Add(1)
	}
	return nil
}
