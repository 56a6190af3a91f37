// Package sdtdtest drives the sdtd daemon end to end, the way the
// end-to-end drivers (cmd/sdtdsmoke, cmd/sdtchaos) do. It has two
// halves: Client, a typed HTTP client for the daemon's routes (runs,
// sweep streams, /metrics, /healthz, the membership admin endpoints),
// and Daemon, a child sdtd process started on its own store with the
// client bound to its listen address. Those drivers are what prove the
// daemon returns the simulator's exact bytes through faults, kills and
// membership changes, so the code they share lives here once.
package sdtdtest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"sdt/internal/service"
)

// Client talks to one sdtd at Base (e.g. "http://127.0.0.1:8321").
type Client struct {
	Base string
}

// Post submits req to /v1/run and returns the status and body as is.
func (c *Client) Post(req service.RunRequest) (int, []byte, error) {
	return read(c.post("/v1/run", "", req))
}

// Submit posts req to /v1/run and requires a 200 response.
func (c *Client) Submit(req service.RunRequest) (*service.RunResponse, error) {
	status, data, err := c.Post(req)
	var resp service.RunResponse
	if err := decodeOK(status, data, err, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// PostAdmin posts v to a membership admin route (/v1/cluster/join or
// /leave) with the admin token and decodes the view the node answers.
func (c *Client) PostAdmin(path, token string, v any) (*service.MembershipResponse, error) {
	status, data, err := read(c.post(path, token, v))
	var mr service.MembershipResponse
	if err := decodeOK(status, data, err, &mr); err != nil {
		return nil, err
	}
	return &mr, nil
}

// Record is the union of the NDJSON record shapes that the sweep routes
// (/v1/sweep, /v1/sweep/shard, /v1/cluster/sweep) stream: one struct
// with every field, so a single decode handles any record type.
type Record struct {
	Type     string `json:"type"`
	Total    int    `json:"total"`
	Resumed  int    `json:"resumed"`
	Index    int    `json:"index"`
	Key      string `json:"key"`
	Workload string `json:"workload"`
	Mech     string `json:"mech"`
	Cached   bool   `json:"cached"`
	// Replayed is bool on cell records and int on the done record.
	Replayed any                `json:"replayed"`
	Result   json.RawMessage    `json:"result"`
	Error    *service.ErrorInfo `json:"error"`
	Done     int                `json:"done"`
	Errors   int                `json:"errors"`
	Canceled int                `json:"canceled"`
}

// Stream posts body to a sweep route (path may carry a query) and reads
// the whole NDJSON response. It calls onRecord, if non-nil, for every
// record in stream order as it arrives; an error from onRecord ends the
// read, closes the connection and is returned. Stream returns every
// record plus the canonical bytes, the stream with its heartbeat
// progress records stripped (docs/CLUSTER.md), which deterministic
// streams are compared by.
func (c *Client) Stream(path string, body any, onRecord func(Record) error) ([]Record, []byte, error) {
	resp, err := c.post(path, "", body)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return nil, nil, fmt.Errorf("%s status %d: %s", path, resp.StatusCode, data)
	}
	var canonical bytes.Buffer
	var recs []Record
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, nil, fmt.Errorf("decoding %s line %q: %w", path, line, err)
		}
		recs = append(recs, rec)
		if rec.Type != "progress" {
			canonical.Write(line)
			canonical.WriteByte('\n')
		}
		if onRecord != nil {
			if err := onRecord(rec); err != nil {
				return nil, nil, err
			}
		}
	}
	return recs, canonical.Bytes(), sc.Err()
}

// Metric scrapes /metrics for one exact series, name plus labels as the
// daemon renders them (e.g. `sdtd_cache_hits_total{layer="peer"}`). A
// series not rendered yet reads 0; a sample that is not an integer is an
// error.
func (c *Client) Metric(series string) (int, error) {
	return c.scrape(func(s string) bool { return s == series })
}

// MetricSum sums every series whose name starts with prefix, e.g.
// "sdtd_runs_total{" for all outcome labels of one counter family.
func (c *Client) MetricSum(prefix string) (int, error) {
	return c.scrape(func(s string) bool { return strings.HasPrefix(s, prefix) })
}

func (c *Client) scrape(match func(series string) bool) (int, error) {
	status, data, err := read(http.Get(c.Base + "/metrics"))
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("/metrics status %d: %s", status, data)
	}
	total := 0
	for _, line := range strings.Split(string(data), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") || !match(line[:sp]) {
			continue
		}
		v, err := strconv.Atoi(line[sp+1:])
		if err != nil {
			return 0, fmt.Errorf("parsing metric line %q: %w", line, err)
		}
		total += v
	}
	return total, nil
}

// Health fetches /healthz: the HTTP status (200 while serving, 503
// while draining) and the decoded report.
func (c *Client) Health() (int, service.Health, error) {
	var h service.Health
	status, data, err := read(http.Get(c.Base + "/healthz"))
	if err == nil {
		if err = json.Unmarshal(data, &h); err != nil {
			err = fmt.Errorf("/healthz body is not a JSON health report: %w", err)
		}
	}
	return status, h, err
}

// HasKey reports whether the node serves the sealed result frame for a
// content-store key from its own tiers.
func (c *Client) HasKey(key string) bool {
	status, _, err := read(http.Get(c.Base + "/v1/peer/result/" + key))
	return err == nil && status == http.StatusOK
}

// post sends v as a JSON body to path, with the admin token if one is
// given, and returns the open response.
func (c *Client) post(path, token string, v any) (*http.Response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("X-Admin-Token", token)
	}
	return http.DefaultClient.Do(req)
}

// read drains and closes a response, returning its status and body.
func read(resp *http.Response, err error) (int, []byte, error) {
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// decodeOK requires a 200 response and decodes its JSON body into v.
func decodeOK(status int, data []byte, err error, v any) error {
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, data)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decoding %q: %w", data, err)
	}
	return nil
}
