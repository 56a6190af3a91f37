package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sdt/internal/asm"
)

// scanAccepts are /v1/run bodies the scanner must decode itself.
var scanAccepts = []string{
	`{}`,
	" \t\r\n{ \"source\" : \"halt\" , \"seed\" : 0 } \n",
	`{"name":"a<b>&c","lang":"asm","source":"\u003cx\u003e \u0026 \"q\" \\ \/ \b\f\n\r\t \u0000 \u00e9\u20AC","arch":"arm","mech":"sieve:64"}`,
	"{\"name\":\"\u00fc\u2028\U0001F600\",\"source\":\"halt\"}",
	`{"seed":18446744073709551615,"limit":0,"timeout_ms":-9223372036854775808}`,
	`{"timeout_ms":9223372036854775807}`,
	`{"timeout_ms":-0}`,
	`{"source":"","name":""}`,
	`{"name":"a\tb","source":"\u00e9 \n longer than the name","mech":"\/"}`,
	`{"source":"a\\","name":"b\"c\\\"","lang":"\\\\"}`, // quotes after backslash runs
}

// scanDeclines are /v1/run bodies the scanner must hand to decodeJSON:
// each holds one construct it does not decode, whether decodeJSON
// accepts the body or refuses it.
var scanDeclines = []string{
	`{"Source":"halt"}`,                   // case-folded key
	`{"source":null}`,                     // null
	`{"name":"\ud83d\ude00"}`,             // surrogate pair
	`{"name":"\ud83d"}`,                   // unpaired surrogate
	"{\"name\":\"\xff\"}",                 // invalid UTF-8
	"{\"name\":\"\xed\xa0\x80\"}",         // UTF-8-encoded surrogate
	`{"seed":1e3}`,                        // exponent
	`{"seed":-1}`,                         // negative unsigned
	`{"seed":-0}`,                         // negative zero unsigned
	`{"seed":1.5}`,                        // fraction
	`{"limit":18446744073709551616}`,      // 2^64
	`{"timeout_ms":9223372036854775808}`,  // 2^63
	`{"timeout_ms":-9223372036854775809}`, // -2^63-1
	`{"seed":01}`,                         // leading zero
	`{"seed":"1"}`,                        // string for a number
	`{"source":1}`,                        // number for a string
	`{"source":"a","source":"b"}`,         // duplicate key
	`{"sour\u0063e":"halt"}`,              // escaped key
	`{"source":"halt","bogus":1}`,         // unknown field
	``,                                    // empty body
	`[]`,                                  // not an object
	`{"source":"halt"} trailing`,          // trailing data
	`{"source":"halt"}{}`,                 // second value
	`{"source":"halt",}`,                  // trailing comma
	`{"source":"ha` + "\n" + `lt"}`,       // raw control character
	`{"source":"\x"}`,                     // bad escape
	`{"source":"\u12"}`,                   // short \u escape
	`{"source":"halt`,                     // truncated string
	"\ufeff{}",                            // byte order mark
}

// checkScan decodes body with scanRun and with the reference and fails
// if the scanner accepts a body the reference refuses or decodes it to
// another RunRequest. It reports whether the scanner accepted.
func checkScan(t *testing.T, body []byte) bool {
	t.Helper()
	var ref, fast RunRequest
	refErr := decodeJSON(body, &ref)
	if !scanRun(body, &fast) {
		return false
	}
	if refErr != nil {
		t.Fatalf("scanner accepted %.80q, which the reference refuses: %v", body, refErr)
	}
	if fast != ref {
		t.Fatalf("scanner decoded %.80q as %+v, the reference as %+v", body, fast, ref)
	}
	return true
}

func TestScanRunAcceptsAndDeclines(t *testing.T) {
	for _, body := range scanAccepts {
		if !checkScan(t, []byte(body)) {
			t.Errorf("scanner declined %q", body)
		}
	}
	for _, body := range scanDeclines {
		if checkScan(t, []byte(body)) {
			t.Errorf("scanner accepted %q", body)
		}
	}
}

// Every body the serve mix sends, as its client marshals it, takes the
// fast path, and the MiniC source's \u escapes are part of that.
func TestScanRunServeMix(t *testing.T) {
	escapes := 0
	for _, req := range serveMix(t) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !checkScan(t, body) {
			t.Errorf("%s: %d-byte body fell back to encoding/json", req.Name, len(body))
		}
		escapes += bytes.Count(body, []byte(`\u`))
	}
	if escapes == 0 {
		t.Error("no serve-mix body carries a \\u escape")
	}
}

// The decoded request owns its strings, those copied straight from the
// body and those unescaped: recycling the body buffer does not change
// them.
func TestScanRunCopiesStrings(t *testing.T) {
	body := []byte(`{"name":"plain","lang":"a\/b","source":"esc\naped"}`)
	var req RunRequest
	if !scanRun(body, &req) {
		t.Fatal("scanner declined")
	}
	for i := range body {
		body[i] = 'X'
	}
	if req.Name != "plain" || req.Lang != "a/b" || req.Source != "esc\naped" {
		t.Fatalf("strings alias the buffers: %+v", req)
	}
}

// writeRun writes exactly what json.Encoder writes for the RunResponse.
func TestWriteRunMatchesEncoder(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var results [][]byte
	for _, name := range []string{"quick.s", "a<b>&c.s", "ünïcødé\u2028—.s"} {
		req := RunRequest{Name: name, Source: quickSrc}
		req.withDefaults()
		img, err := asm.Assemble(req.Name, req.Source)
		if err != nil {
			t.Fatal(err)
		}
		data, err := s.runJob(context.Background(), req.key(img), img, &req)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, data)
	}
	elapsed := []float64{0, 0.001, 0.025, 1234.567, 1e-7, 1.5e21}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		elapsed = append(elapsed, float64(rng.Int63n(1<<(i%40)+1))/1000)
	}
	for _, data := range results {
		for _, cached := range []bool{false, true} {
			for _, ms := range elapsed {
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(RunResponse{Cached: cached, ElapsedMS: ms, Result: data}); err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				s.writeRun(rec, httptest.NewRequest(http.MethodPost, "/v1/run", nil), cached, ms, data)
				if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
					t.Fatalf("cached=%v elapsed=%v:\n got %s\nwant %s", cached, ms, rec.Body, want.Bytes())
				}
				if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
					t.Fatalf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
				}
			}
		}
	}
}

// Every route that decodes a JSON body reads all of it: a body over
// MaxBodyBytes and data after the JSON value are refused, while trailing
// whitespace within the cap is not.
func TestBodyCapAndTrailingData(t *testing.T) {
	joiner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer joiner.Close()
	const maxBody = 4096
	node := newSoloNode(t, func(cfg *Config) {
		cfg.AdminToken = testAdminToken
		cfg.MaxBodyBytes = maxBody
	})
	post := func(path, body string) (int, []byte) {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.Header.Set("X-Admin-Token", testAdminToken)
		rec := httptest.NewRecorder()
		node.s.Handler().ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	for _, rt := range []struct{ path, body string }{
		{"/v1/run", `{"source":"halt"}`},
		{"/v1/sweep", `{"workloads":["micro.ret"],"mechs":["ibtc:256"],"scales":[1]}`},
		{"/v1/cluster/join", `{"url":"` + joiner.URL + `"}`},
	} {
		for _, bad := range []struct{ name, body string }{
			{"over-cap body", rt.body + strings.Repeat(" ", 1<<20)},
			{"trailing garbage", rt.body + " trailing"},
			{"second value", rt.body + "{}"},
		} {
			status, data := post(rt.path, bad.body)
			if status != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", rt.path, bad.name, status)
				continue
			}
			if e := decodeError(t, data); e.Code != CodeInvalidRequest {
				t.Errorf("%s %s: code %q, want %q", rt.path, bad.name, e.Code, CodeInvalidRequest)
			}
		}
		body := rt.body + strings.Repeat(" \n", (maxBody-len(rt.body))/2)
		if status, data := post(rt.path, body); status != http.StatusOK {
			t.Errorf("%s with trailing whitespace up to the cap: status %d: %.200s", rt.path, status, data)
		}
	}
}
