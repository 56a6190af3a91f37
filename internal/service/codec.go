package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// Request bodies are read whole, once, into a pooled buffer. decodeJSON
// is the reference decoder for every route; /v1/run first tries scanRun,
// a one-pass scanner that decodes the bodies clients send and declines
// everything else back to decodeJSON. writeRun writes the /v1/run reply
// around the stored result without re-encoding it.

// requestBody is a pooled request body.
type requestBody struct {
	buf bytes.Buffer
}

// maxPooledBody bounds the buffers bodyPool keeps, so one large body
// does not stay pinned for the requests after it.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(requestBody) }}

// readBody reads r's whole body, at most MaxBodyBytes, into a pooled
// buffer. A longer body is an error. The caller releases the buffer once
// nothing refers to its bytes.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*requestBody, error) {
	rb := bodyPool.Get().(*requestBody)
	if _, err := rb.buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		rb.release()
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	return rb, nil
}

func (rb *requestBody) release() {
	if rb.buf.Cap() > maxPooledBody {
		return
	}
	rb.buf.Reset()
	bodyPool.Put(rb)
}

// decodeBody decodes r's whole body, at most MaxBodyBytes, into v with
// decodeJSON: one JSON value, no unknown fields, no trailing data.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	rb, err := s.readBody(w, r)
	if err != nil {
		return err
	}
	defer rb.release()
	return decodeJSON(rb.buf.Bytes(), v)
}

// decodeJSON is the reference request decoder: exactly one JSON value
// into v, unknown fields refused, nothing but whitespace after it.
func decodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) != 0 {
		return errors.New("decoding request: data after the JSON value")
	}
	return nil
}

// scanRun decodes data, a /v1/run body, into req in one pass. It accepts
// only bodies it decodes exactly as decodeJSON would: one object of distinct, exactly spelled RunRequest
// fields, each a string that is valid UTF-8 with no escaped surrogate or
// a plain in-range integer. For anything else it reports false, leaving
// req partly filled, and the caller falls back to decodeJSON, which stays
// the specification and the source of every error message. The strings
// it stores are copies: none aliases data.
func scanRun(data []byte, req *RunRequest) bool {
	sc := runScanner{data: data}
	return sc.object(req)
}

type runScanner struct {
	data []byte
	i    int
}

// space consumes whitespace.
func (sc *runScanner) space() {
	for sc.i < len(sc.data) {
		switch sc.data[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// skip consumes c after optional whitespace.
func (sc *runScanner) skip(c byte) bool {
	sc.space()
	if sc.i < len(sc.data) && sc.data[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

func (sc *runScanner) object(req *RunRequest) bool {
	if !sc.skip('{') {
		return false
	}
	if sc.skip('}') {
		return sc.end()
	}
	var seen uint8
	for {
		key, ok := sc.key()
		if !ok || !sc.skip(':') {
			return false
		}
		var field uint
		switch string(key) {
		case "name":
			field, ok = 0, sc.str(&req.Name)
		case "lang":
			field, ok = 1, sc.str(&req.Lang)
		case "source":
			field, ok = 2, sc.str(&req.Source)
		case "arch":
			field, ok = 3, sc.str(&req.Arch)
		case "mech":
			field, ok = 4, sc.str(&req.Mech)
		case "seed":
			field, ok = 5, sc.uint(&req.Seed)
		case "limit":
			field, ok = 6, sc.uint(&req.Limit)
		case "timeout_ms":
			field, ok = 7, sc.int(&req.TimeoutMS)
		default:
			return false
		}
		if !ok || seen&(1<<field) != 0 {
			return false
		}
		seen |= 1 << field
		if sc.skip('}') {
			return sc.end()
		}
		if !sc.skip(',') {
			return false
		}
	}
}

// end reports whether only whitespace is left.
func (sc *runScanner) end() bool {
	sc.space()
	return sc.i == len(sc.data)
}

// key returns an object key's raw bytes. Only the exact field names
// match them, and those hold no escape, so a key is not unescaped.
func (sc *runScanner) key() ([]byte, bool) {
	if !sc.skip('"') {
		return nil, false
	}
	n := bytes.IndexByte(sc.data[sc.i:], '"')
	if n < 0 {
		return nil, false
	}
	k := sc.data[sc.i : sc.i+n]
	sc.i += n + 1
	return k, true
}

// str decodes a string value into *dst. A value with no escape is
// copied straight from data; one with escapes is unescaped into a
// builder sized by its raw length, which unescaping never exceeds.
func (sc *runScanner) str(dst *string) bool {
	if !sc.skip('"') {
		return false
	}
	data, start, i := sc.data, sc.i, sc.i
	var b strings.Builder // the value once an escape is met; until then data[start:i]
	escaped := false
	for {
		run := i
		for i < len(data) && plain[data[i]] {
			i++
		}
		if escaped {
			b.Write(data[run:i])
		}
		if i == len(data) {
			return false
		}
		switch c := data[i]; {
		case c == '"':
			sc.i = i + 1
			if escaped {
				*dst = b.String()
			} else {
				*dst = string(data[start:i])
			}
			return true
		case c == '\\':
			if !escaped {
				end := closingQuote(data, i)
				if end < 0 {
					return false
				}
				b.Grow(end - start)
				b.Write(data[start:i])
				escaped = true
			}
			if i+1 == len(data) {
				return false
			}
			i += 2
			switch e := data[i-1]; e {
			case '"', '\\', '/':
				b.WriteByte(e)
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case 'u':
				r, ok := hex4(data[i:])
				if !ok || utf16.IsSurrogate(r) {
					return false
				}
				b.WriteRune(r)
				i += 4
			default:
				return false
			}
		case c < ' ':
			return false
		default:
			// encoding/json turns invalid UTF-8 into U+FFFD; decline it.
			r, n := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && n == 1 {
				return false
			}
			if escaped {
				b.Write(data[i : i+n])
			}
			i += n
		}
	}
}

// closingQuote returns the index of the first quote at or after i that
// no backslash escapes, or -1. The string holding i opens with a quote,
// which stops the walk back over backslashes.
func closingQuote(data []byte, i int) int {
	for {
		q := bytes.IndexByte(data[i:], '"')
		if q < 0 {
			return -1
		}
		i += q
		k := i
		for data[k-1] == '\\' {
			k--
		}
		if (i-k)%2 == 0 {
			return i
		}
		i++
	}
}

// plain marks the bytes a string copies as they are: printable ASCII
// other than the quote and the backslash.
var plain = func() (p [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		p[c] = c != '"' && c != '\\'
	}
	return p
}()

// hex4 decodes the four hex digits that open b, a \u escape's tail.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// integer scans a JSON integer: an optional minus, then 0 or a nonzero
// digit and more digits. It returns the magnitude and declines one that
// overflows a uint64. A fraction or exponent makes the caller decline at
// the following character.
func (sc *runScanner) integer() (mag uint64, neg, ok bool) {
	if sc.i < len(sc.data) && sc.data[sc.i] == '-' {
		neg = true
		sc.i++
	}
	start := sc.i
	for sc.i < len(sc.data) {
		c := sc.data[sc.i]
		if c < '0' || c > '9' || sc.i > start && sc.data[start] == '0' {
			break
		}
		d := uint64(c - '0')
		if mag > (math.MaxUint64-d)/10 {
			return 0, false, false
		}
		mag = mag*10 + d
		sc.i++
	}
	return mag, neg, sc.i > start
}

// uint decodes a non-negative integer value into *dst.
func (sc *runScanner) uint(dst *uint64) bool {
	sc.space()
	mag, neg, ok := sc.integer()
	if !ok || neg {
		return false
	}
	*dst = mag
	return true
}

// int decodes an integer value that fits an int64 into *dst.
func (sc *runScanner) int(dst *int64) bool {
	sc.space()
	mag, neg, ok := sc.integer()
	switch {
	case !ok, !neg && mag > math.MaxInt64, neg && mag > 1<<63:
		return false
	case neg:
		*dst = -int64(mag) // mag == 1<<63 wraps to MinInt64, its own negation
	default:
		*dst = int64(mag)
	}
	return true
}

// writeRun writes a /v1/run 200 in one Write. Its bytes are those of
// json.NewEncoder(w).Encode(RunResponse{...}), with result, the stored
// RunResult, copied verbatim: stored results are json.Marshal output,
// already compact and HTML-escaped, which the encoder leaves as they are.
func (s *Server) writeRun(w http.ResponseWriter, r *http.Request, cached bool, elapsedMS float64, result []byte) {
	s.countRequest(r, http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	b := make([]byte, 0, len(result)+96) // room for the rest and the longest float
	b = append(b, `{"cached":`...)
	b = strconv.AppendBool(b, cached)
	b = append(b, `,"elapsed_ms":`...)
	b = appendJSONFloat(b, elapsedMS)
	b = append(b, `,"result":`...)
	b = append(b, result...)
	b = append(b, "}\n"...)
	w.Write(b)
}

// appendJSONFloat appends finite f as encoding/json writes a float64:
// the shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 up, with a one-digit negative exponent not zero-padded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
