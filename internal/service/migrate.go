package service

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/delta"
	"repro/internal/sched"
	"repro/internal/trace"
)

// SessionExport is the wire form of a live session, complete enough
// that ImportSession on another shard resumes it bit-identically: the
// materialized current trace (pimtrace v1 text), the head of the
// chained fingerprint sequence, the applied-delta count, and the
// session's patched residence table in the pimtab-v2 binary codec
// (base64 under encoding/json). The table is the
// expensive part — it carries every delta's incremental patch, so the
// importer re-solves from it instead of rebuilding windows x data x
// processors cells.
type SessionExport struct {
	SessionID   string `json:"session_id"`
	Algorithm   string `json:"algorithm"`
	Capacity    int    `json:"capacity"`
	Seq         uint64 `json:"seq"`
	Fingerprint string `json:"fingerprint"`
	Trace       string `json:"trace"`
	Table       []byte `json:"table"`
}

// ErrSessionExists reports an import under a session ID this shard
// already holds; the HTTP layer maps it to 409. IDs carry a random
// fleet-unique suffix, so a collision means the same session was
// imported twice, not an accident worth overwriting state for.
type ErrSessionExists struct{ ID string }

func (e *ErrSessionExists) Error() string { return "service: session already exists: " + e.ID }

// ExportSession serializes a live session for migration. The session
// stays live — the router deletes it at the source once the import
// succeeded, so a failed migration loses nothing.
func (s *Service) ExportSession(id string) (*SessionExport, error) {
	var exp *SessionExport
	if err := s.withSession(id, func(e *sessionEntry) error {
		var buf strings.Builder
		if err := trace.Encode(&buf, e.sess.Trace()); err != nil {
			return fmt.Errorf("service: export session %s: %w", id, err)
		}
		fp := e.sess.Fingerprint()
		exp = &SessionExport{
			SessionID:   id,
			Algorithm:   e.sess.Algorithm(),
			Capacity:    e.sess.Capacity(),
			Seq:         e.sess.Seq(),
			Fingerprint: fp.String(),
			Trace:       buf.String(),
			Table:       cost.EncodeTable(fp, e.sess.Table()),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	s.sessionsExported.Add(1)
	return exp, nil
}

// ImportSession registers an exported session under its original ID,
// adopting the shipped table instead of building one (tables_built
// stays flat — migration is a transfer, not a rebuild). The chained
// fingerprint and sequence number carry over, so subsequent deltas and
// schedules continue exactly where the source shard stopped.
func (s *Service) ImportSession(exp SessionExport) (*SessionInfo, error) {
	if exp.SessionID == "" {
		return nil, badRequest("import without session_id")
	}
	scheduler, err := sched.ByName(exp.Algorithm)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	if exp.Capacity < 0 {
		return nil, badRequest("negative capacity %d", exp.Capacity)
	}
	if int64(len(exp.Trace)) > s.cfg.maxBodyBytes() {
		return nil, badRequest("trace text %d bytes exceeds limit %d", len(exp.Trace), s.cfg.maxBodyBytes())
	}
	wantFP, err := trace.ParseFingerprint(exp.Fingerprint)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	tr, err := trace.Decode(strings.NewReader(exp.Trace))
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	if err := s.checkTraceScale(tr); err != nil {
		return nil, err
	}
	// The shipped table is decoded under the same cell budget the trace
	// guard enforces: the trace cross-check alone runs only after this
	// decode, so without the budget a crafted payload header could
	// commit the shard to an allocation its own guards would refuse.
	tableFP, table, err := cost.DecodeTable(exp.Table, s.cfg.maxTableCells())
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	if tableFP != wantFP {
		return nil, badRequest("table payload fingerprint %s does not match session fingerprint %s",
			tableFP, wantFP)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, ok := s.sessions[exp.SessionID]; ok {
		return nil, &ErrSessionExists{ID: exp.SessionID}
	}
	if len(s.sessions) >= s.cfg.maxSessions() {
		return nil, fmt.Errorf("%w: %d sessions live", ErrOverloaded, len(s.sessions))
	}
	sess, err := delta.RestoreSession(tr, scheduler, exp.Capacity, exp.Seq, table, delta.Options{
		Stages: s.stages,
		OnLayersRecomputed: func(layers int) {
			s.deltaLayersRecomputed.Store(int64(layers))
		},
	})
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	// The restored session recomputes the chained fingerprint from the
	// materialized trace; a mismatch with the envelope means the export
	// was corrupted in flight and must not be resumed.
	if got := sess.Fingerprint(); got != wantFP {
		return nil, errors.New("service: restored session fingerprint " + got.String() +
			" does not match export " + wantFP.String())
	}
	if s.sessions == nil {
		s.sessions = make(map[string]*sessionEntry)
	}
	s.sessions[exp.SessionID] = &sessionEntry{id: exp.SessionID, sess: sess, grid: tr.Grid.String()}
	s.sessionsImported.Add(1)
	return s.sessionInfo(s.sessions[exp.SessionID]), nil
}
