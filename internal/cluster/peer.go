package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"sdt/internal/store"
)

// errBadSeal marks a peer answer that arrived but failed its seal
// check: the peer is reachable, its copy is rot.
var errBadSeal = errors.New("sealed entry rejected")

// peerReq is one node-to-node request.
type peerReq struct {
	method string
	url    string
	body   []byte // nil sends no body
	token  string // X-Admin-Token, for the admin-guarded membership route
	// sealed marks a request that carries a sealed entry: a body is
	// sealed before it is sent (else it is JSON), and a 200 answer is
	// read (at most maxEntryBytes), shown to site's Corrupt hook when
	// site is set, and unsealed.
	sealed bool
	site   string
}

// do sends one request to a peer. Every request the cluster makes to
// another node goes through it, so each one is bounded by FetchTimeout
// and drains and closes its response. A 200 or 204 is success: do
// returns (payload, true, nil), where payload is the unsealed entry of
// a sealed GET and nil otherwise. A 404 to a GET is a clean miss, (nil,
// false, nil): the peer answered and holds nothing. Any other status, a
// transport error, an oversized entry or a failed seal (errBadSeal) is
// an error.
func (c *Cluster) do(ctx context.Context, req peerReq) ([]byte, bool, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var body io.Reader
	ctype := "application/json"
	if req.sealed && req.body != nil {
		req.body, ctype = store.SealEntry(req.body), "application/octet-stream"
	}
	if req.body != nil {
		body = bytes.NewReader(req.body)
	}
	hr, err := http.NewRequestWithContext(ctx, req.method, req.url, body)
	if err != nil {
		return nil, false, err
	}
	if req.body != nil {
		hr.Header.Set("Content-Type", ctype)
	}
	if req.token != "" {
		hr.Header.Set("X-Admin-Token", req.token)
	}
	resp, err := c.client.Do(hr)
	if err != nil {
		return nil, false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNoContent:
	case resp.StatusCode == http.StatusNotFound && req.method == http.MethodGet:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("peer answered %s", resp.Status)
	}
	if !req.sealed || req.method != http.MethodGet {
		return nil, true, nil
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes+1))
	if err != nil {
		return nil, false, err
	}
	if len(raw) > maxEntryBytes {
		return nil, false, fmt.Errorf("entry exceeds %d bytes", maxEntryBytes)
	}
	if req.site != "" && c.faults != nil {
		raw, _ = c.faults.Corrupt(req.site, raw)
	}
	payload, err := store.OpenEntry(raw)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %w", errBadSeal, err)
	}
	return payload, true, nil
}
