package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// sharePackages are the layers the CPU profile is reduced to; every other
// frame counts toward the total only.
var sharePackages = []string{"core", "machine", "ib", "cache", "predictor", "profile", "runtime"}

// pkgOf maps a profiled function name to its layer, or "" for none.
func pkgOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "sdt/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") {
		return "runtime"
	}
	return ""
}

// cpuShares reduces a pprof CPU profile to the share of CPU time whose
// innermost frame (after inlining) lies in each package. It writes the
// profile to dir and reads it back with `go tool pprof -top`; run.sh has
// just built the benchmark with that toolchain, so the tool is present.
func cpuShares(profile []byte, dir string) (map[string]float64, error) {
	f, err := os.CreateTemp(dir, "cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(profile)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ns", "-nodecount=1000000",
		"-nodefraction=0", "-symbolize=none", f.Name())
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+dir)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %.500s", err, stderr.String())
	}
	return topShares(string(out))
}

// topShares sums the flat column of a `pprof -top -unit=ns` listing by
// package, over the listing's total.
func topShares(top string) (map[string]float64, error) {
	var total float64
	by := map[string]float64{}
	inRows := false
	for _, line := range strings.Split(top, "\n") {
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "Showing nodes accounting for"):
			// "... for Xns, 100% of Yns total"
			if i := strings.Index(line, " of "); i >= 0 && len(fields) >= 2 {
				v, err := parseNs(strings.Fields(line[i+4:])[0])
				if err != nil {
					return nil, err
				}
				total = v
			}
		case len(fields) >= 1 && fields[0] == "flat":
			inRows = true
		case inRows && len(fields) >= 6:
			flat, err := parseNs(fields[0])
			if err != nil {
				return nil, err
			}
			if p := pkgOf(fields[5]); p != "" {
				by[p] += flat
			}
		}
	}
	if total == 0 {
		return nil, errors.New("CPU profile holds no samples")
	}
	shares := map[string]float64{}
	for _, p := range sharePackages {
		shares[p] = by[p] / total
	}
	return shares, nil
}

// parseNs reads a pprof value printed with -unit=ns ("0" or "1230ns").
func parseNs(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ns"), 64)
	if err != nil {
		return 0, fmt.Errorf("pprof value %q: %w", s, err)
	}
	return v, nil
}
