package service

import (
	"context"
	"errors"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
)

// DefaultMaxBatchSpecs bounds the specs one batch may carry when
// Config.MaxBatchSpecs is zero. A batch holds one concurrency slot for
// its whole run, so the bound keeps a single request from monopolizing
// a worker for unbounded time.
const DefaultMaxBatchSpecs = 1024

// BatchSpec is one scheduling job inside a batch: everything a Request
// carries except the trace, which the batch shares.
type BatchSpec struct {
	Algorithm string `json:"algorithm"`
	Capacity  int    `json:"capacity"`
	Verify    bool   `json:"verify,omitempty"`
}

// BatchRequest is the POST /schedule/batch body: one trace, resolved
// once, scheduled under every spec. The cache is consulted exactly once
// for the whole batch, so N specs over a fresh trace cost one table
// build, not N.
type BatchRequest struct {
	Trace    string      `json:"trace"`
	Requests []BatchSpec `json:"requests"`

	// PeerHint mirrors Request.PeerHint: router-supplied, never decoded
	// from the body.
	PeerHint string `json:"-"`
}

// BatchItem is one spec's outcome. Exactly one of Response and Error is
// set: a spec whose scheduler run fails (infeasible capacity, referee
// rejection) reports its error in place without failing the batch.
type BatchItem struct {
	Response *Response `json:"response,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// BatchResponse carries the per-spec outcomes in request order.
type BatchResponse struct {
	Fingerprint string      `json:"fingerprint"`
	CacheHit    bool        `json:"cache_hit"`
	Responses   []BatchItem `json:"responses"`
	ElapsedUS   int64       `json:"elapsed_us"`
}

// ScheduleBatch runs one batch request: resolve the trace once,
// resolve the table cache once, then answer every spec against the
// shared entry and its schedule memo. The batch occupies one
// concurrency slot (it is one unit of shedding and one unit of
// deadline); specs run sequentially inside it.
func (s *Service) ScheduleBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	s.requests.Add(1)
	start := time.Now()
	resp, err := s.scheduleBatch(ctx, req)
	if err != nil {
		s.countFailure(err)
		return nil, err
	}
	s.batches.Add(1)
	s.batchSpecs.Add(uint64(len(req.Requests)))
	resp.ElapsedUS = s.complete(start).Microseconds()
	return resp, nil
}

func (s *Service) scheduleBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	if len(req.Requests) == 0 {
		return nil, badRequest("empty batch: no request specs")
	}
	if max := s.cfg.MaxBatchSpecs; len(req.Requests) > max {
		return nil, badRequest("batch carries %d specs, limit %d", len(req.Requests), max)
	}
	// Specs are validated up front so a malformed batch is rejected
	// whole before any heavy work: mixing a typo'd algorithm into a
	// thousand-spec batch is a client bug, not a partial success.
	schedulers := make([]sched.Scheduler, len(req.Requests))
	specs := make([]memoKey, len(req.Requests))
	needTrace := false
	for i, spec := range req.Requests {
		scheduler, err := checkSpec(spec.Algorithm, spec.Capacity)
		if err != nil {
			return nil, badRequest("spec %d: %s", i, specError(err))
		}
		schedulers[i] = scheduler
		specs[i] = memoKey{algorithm: scheduler.Name(), capacity: spec.Capacity}
		needTrace = needTrace || spec.Verify
	}
	return runTrace(s, ctx, &traceInput{text: req.Trace, peerHint: req.PeerHint, specs: specs}, needTrace,
		func(stages obs.Stages, in *traceInput, entry *cacheEntry, cacheHit bool) (*BatchResponse, error) {
			resp := &BatchResponse{
				Fingerprint: in.sum.Fingerprint.String(),
				CacheHit:    cacheHit,
				Responses:   make([]BatchItem, len(req.Requests)),
			}
			for i, spec := range req.Requests {
				// Fingerprint and CacheHit ride at the batch level;
				// repeating them per item would bloat large batches for
				// no information.
				r, err := s.runSpec(stages, in, entry, schedulers[i], spec.Capacity, spec.Verify)
				if err != nil {
					resp.Responses[i] = BatchItem{Error: specError(err)}
					continue
				}
				resp.Responses[i] = BatchItem{Response: r}
			}
			return resp, nil
		})
}

// specError is a failed spec's in-place error text: a scheduler refusal
// reads as the scheduler's own message, without the bad-request prefix
// a single request's 400 carries.
func specError(err error) string {
	var re *RequestError
	if errors.As(err, &re) {
		return re.Err.Error()
	}
	return err.Error()
}
