package sdtdtest_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"sdt/internal/sdtdtest"
	"sdt/internal/service"
)

// fakeDaemonEnv makes the test binary, re-executed by Start, act as a
// minimal sdtd: it prints the listen line, serves an in-process
// service handler, and exits 0 on SIGTERM.
const fakeDaemonEnv = "SDTDTEST_FAKE_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(fakeDaemonEnv) != "" {
		os.Exit(fakeDaemon())
	}
	os.Exit(m.Run())
}

func fakeDaemon() int {
	s, err := service.New(service.Config{Workers: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv := &http.Server{Handler: s.Handler()}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	go func() {
		<-sig
		srv.Shutdown(context.Background())
	}()
	fmt.Printf("sdtd: listening on http://%s\n", ln.Addr())
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

func newClient(t *testing.T, cfg service.Config) *sdtdtest.Client {
	t.Helper()
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return &sdtdtest.Client{Base: ts.URL}
}

var oneCell = service.SweepRequest{Workloads: []string{"gzip"}, Mechs: []string{"ibtc:256"}, Limit: 20_000_000}

// A heartbeat every microsecond floods the stream with progress records;
// Stream must hand every record to onRecord in order but leave progress
// out of the canonical bytes, which then match a stream that carried
// none.
func TestStreamStripsProgress(t *testing.T) {
	c := newClient(t, service.Config{Workers: 1, SweepHeartbeat: time.Microsecond})
	var seen []sdtdtest.Record
	recs, canonical, err := c.Stream("/v1/cluster/sweep", oneCell, func(rec sdtdtest.Record) error {
		seen = append(seen, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(recs) {
		t.Fatalf("onRecord saw %d records, Stream returned %d", len(seen), len(recs))
	}
	var types []string
	progress := 0
	for i, rec := range recs {
		if rec.Type != seen[i].Type || rec.Index != seen[i].Index {
			t.Fatalf("record %d: onRecord saw %+v, Stream returned %+v", i, seen[i], rec)
		}
		if rec.Type == "progress" {
			progress++
		} else {
			types = append(types, rec.Type)
		}
	}
	if progress == 0 {
		t.Fatal("a 1µs heartbeat produced no progress records")
	}
	if got := strings.Join(types, ","); got != "start,cell,done" {
		t.Fatalf("non-progress records %s, want start,cell,done", got)
	}
	if bytes.Contains(canonical, []byte(`"progress"`)) {
		t.Fatalf("canonical bytes carry progress records:\n%s", canonical)
	}
	if n := bytes.Count(canonical, []byte("\n")); n != len(types) {
		t.Fatalf("canonical bytes hold %d lines, want %d", n, len(types))
	}

	_, quiet, err := newClient(t, service.Config{Workers: 1}).Stream("/v1/cluster/sweep", oneCell, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical, quiet) {
		t.Fatalf("canonical bytes depend on the heartbeat:\n%s--- vs\n%s", canonical, quiet)
	}
}

func TestStreamOnRecordErrorEndsRead(t *testing.T) {
	c := newClient(t, service.Config{Workers: 1})
	stop := errors.New("stop")
	calls := 0
	_, _, err := c.Stream("/v1/sweep", oneCell, func(sdtdtest.Record) error {
		calls++
		return stop
	})
	if !errors.Is(err, stop) || calls != 1 {
		t.Fatalf("err = %v after %d calls, want the callback's error after 1", err, calls)
	}
}

func TestNon200CarriesBody(t *testing.T) {
	c := newClient(t, service.Config{Workers: 1})
	bad := map[string]any{"workloads": []string{"gzip"}, "no_such_field": 1}
	if _, _, err := c.Stream("/v1/sweep", bad, nil); err == nil ||
		!strings.Contains(err.Error(), "status 400") || !strings.Contains(err.Error(), service.CodeInvalidRequest) {
		t.Fatalf("Stream err = %v, want status 400 with the error body", err)
	}
	if _, err := c.Submit(service.RunRequest{Name: "empty.s"}); err == nil ||
		!strings.Contains(err.Error(), "status 400") || !strings.Contains(err.Error(), service.CodeInvalidProgram) {
		t.Fatalf("Submit err = %v, want status 400 with the error body", err)
	}
}

func TestMetricAgainstService(t *testing.T) {
	c := newClient(t, service.Config{Workers: 1})
	if _, err := c.Submit(service.RunRequest{Name: "loop.s", Source: "main:\n\tli r10, 3\n\tout r10\n\thalt\n"}); err != nil {
		t.Fatal(err)
	}
	if runs, err := c.MetricSum("sdtd_runs_total{"); err != nil || runs != 1 {
		t.Fatalf("MetricSum(sdtd_runs_total{) = %d, %v; want 1", runs, err)
	}
	if n, err := c.Metric("sdtd_translated_fragments_total"); err != nil || n == 0 {
		t.Fatalf("Metric(sdtd_translated_fragments_total) = %d, %v; want > 0", n, err)
	}
	if status, h, err := c.Health(); err != nil || status != http.StatusOK || h.Status != service.HealthOK {
		t.Fatalf("Health = %d %+v %v", status, h, err)
	}
}

func TestMetricParsing(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "# TYPE sdtd_x_total counter\n"+
			"sdtd_x_total 7\n"+
			"sdtd_x_total_extra 100\n"+
			"sdtd_y_total{outcome=\"ok\"} 3\n"+
			"sdtd_y_total{outcome=\"error\"} 4\n"+
			"sdtd_bad 1.5\n")
	}))
	defer ts.Close()
	c := &sdtdtest.Client{Base: ts.URL}
	for _, tc := range []struct {
		name string
		get  func() (int, error)
		want int
	}{
		{"exact series, not a longer name sharing its prefix", func() (int, error) { return c.Metric("sdtd_x_total") }, 7},
		{"exact labelled series", func() (int, error) { return c.Metric(`sdtd_y_total{outcome="error"}`) }, 4},
		{"absent series", func() (int, error) { return c.Metric("sdtd_x") }, 0},
		{"family sum", func() (int, error) { return c.MetricSum("sdtd_y_total{") }, 7},
	} {
		if got, err := tc.get(); err != nil || got != tc.want {
			t.Errorf("%s: got %d, %v; want %d", tc.name, got, err, tc.want)
		}
	}
	if _, err := c.Metric("sdtd_bad"); err == nil {
		t.Error("Metric read a malformed sample without an error")
	}
	if _, err := c.MetricSum("sdtd_"); err == nil {
		t.Error("MetricSum read a malformed sample without an error")
	}
}

// startFake starts the test binary as a fake sdtd child.
func startFake(t *testing.T) *sdtdtest.Daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(fakeDaemonEnv, "1")
	d, err := sdtdtest.Start(exe, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// returnsWithin fails the test if f has not returned after 10s.
func returnsWithin(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// A drained daemon is reaped by WaitExit; Kill after that, twice, must
// return at once rather than wait for an exit already consumed.
func TestDaemonDrainThenKill(t *testing.T) {
	d := startFake(t)
	if status, _, err := d.Health(); err != nil || status != http.StatusOK {
		t.Fatalf("fake daemon health = %d, %v", status, err)
	}
	if err := d.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitExit(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	returnsWithin(t, "Kill, Kill after WaitExit", func() {
		d.Kill()
		d.Kill()
	})
}

// Kill reaps a live child, and a later WaitExit reports the kill.
func TestDaemonKillReaps(t *testing.T) {
	d := startFake(t)
	returnsWithin(t, "Kill, Kill on a live child", func() {
		d.Kill()
		d.Kill()
	})
	// Only a reaped child refuses signals as finished; a zombie takes them.
	if err := d.Signal(syscall.Signal(0)); !errors.Is(err, os.ErrProcessDone) {
		t.Fatalf("Signal after Kill = %v, want os.ErrProcessDone (child reaped)", err)
	}
	if err := d.WaitExit(time.Second); err == nil || !strings.Contains(err.Error(), "uncleanly") {
		t.Fatalf("WaitExit after Kill = %v, want the killed exit status", err)
	}
}
