package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"repro/internal/cost"
	"repro/internal/service"
	"repro/internal/trace"
)

// NewPeerFill returns the service.PeerFillFunc a shard installs to
// adopt tables from peers: GET {peer}/table/{fingerprint}, decode the
// pimtab-v2 payload, and verify the echoed fingerprint. maxTableCells
// bounds the cell count a payload's header may declare — pass the same
// value as service.Config.MaxTableCells, so a shard never adopts a
// table its own trace guards would refuse to build (<= 0 means only the
// codec's hard ceiling applies). The same budget caps the response
// body at the longest payload such a table can encode to, so a
// misbehaving peer is cut off there rather than after an unbounded
// download. Every failure is an error — the service treats any error as
// a silent fallback to a local build, so this client never needs to be
// clever. The caller's context carries the fetch deadline
// (service.Config.PeerFillTimeout).
func NewPeerFill(client *http.Client, maxTableCells int64) service.PeerFillFunc {
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	maxBytes := cost.MaxTableBytes(maxTableCells)
	return func(ctx context.Context, fp trace.Fingerprint, peerURL string) (cost.ResidenceTable, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peerURL+"/table/"+fp.String(), nil)
		if err != nil {
			return cost.ResidenceTable{}, fmt.Errorf("cluster: peer fill: %w", err)
		}
		resp, err := client.Do(req)
		if err != nil {
			return cost.ResidenceTable{}, fmt.Errorf("cluster: peer fill: %w", err)
		}
		defer func() {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		if resp.StatusCode != http.StatusOK {
			return cost.ResidenceTable{}, fmt.Errorf("cluster: peer fill: %s has no table (status %d)", peerURL, resp.StatusCode)
		}
		payload, err := io.ReadAll(io.LimitReader(resp.Body, maxBytes+1))
		if err != nil {
			return cost.ResidenceTable{}, fmt.Errorf("cluster: peer fill: read: %w", err)
		}
		if int64(len(payload)) > maxBytes {
			return cost.ResidenceTable{}, fmt.Errorf("cluster: peer fill: table body over %d bytes, the most a table within the cell limit encodes to", maxBytes)
		}
		gotFP, table, err := cost.DecodeTable(payload, maxTableCells)
		if err != nil {
			return cost.ResidenceTable{}, fmt.Errorf("cluster: peer fill: %w", err)
		}
		if gotFP != fp {
			return cost.ResidenceTable{}, fmt.Errorf("cluster: peer fill: payload is for %s, want %s", gotFP, fp)
		}
		return table, nil
	}
}
