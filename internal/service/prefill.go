package service

import (
	"context"
	"errors"
)

// PrefillRequest asks a shard to adopt a trace's residence table from a
// peer before any client demands it — the write side of replicated
// ownership. The router sends it to a key's replica owners right after
// the primary serves the key, naming the primary in the X-Pim-Peer
// header; the replica fetches the table over the same GET
// /table/{fingerprint} codec peer fill uses.
type PrefillRequest struct {
	Trace string `json:"trace"`

	// PeerHint is the base URL of the shard holding the table, set by
	// the HTTP layer from the X-Pim-Peer header — never from the body,
	// for the same reason as Request.PeerHint.
	PeerHint string `json:"-"`
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

// Prefill adopts the residence table for req.Trace from the hinted
// peer. It is deliberately asymmetric to Schedule's resolveTable: the
// fetch happens before the cache is touched, so a failed fetch strands
// no waiters and counts no cache miss; an already-resident (or
// in-flight) fingerprint is a cheap no-op. A successful adoption bumps
// tables_prefilled — never tables_built or peer_fills, which stay
// about demand traffic.
func (s *Service) Prefill(ctx context.Context, req PrefillRequest) error {
	if s.cfg.PeerFill == nil {
		return ErrNoPeerFill
	}
	if req.PeerHint == "" {
		return badRequest("prefill without %s header", PeerHintHeader)
	}
	tr, err := s.admitTrace(nil, req.Trace)
	if err != nil {
		return err
	}

	if err := s.enter(nil); err != nil {
		return err
	}
	defer s.wg.Done()

	fp := tr.Fingerprint()
	if s.cache.resident(fp) {
		return nil // already resident (either tier); nothing to transfer
	}

	table, err := s.peerTable(fp, tr.Shape(), req.PeerHint)
	if err != nil {
		return &prefillFetchError{peer: req.PeerHint, err: err}
	}
	if s.cache.adopt(fp, table) {
		s.tablesPrefilled.Add(1)
	}
	return nil
}
