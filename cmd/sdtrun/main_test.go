package main

import (
	"fmt"
	"strings"
	"testing"

	"sdt"
	"sdt/internal/workload"
)

// sdtrun must run a mechanism spec with the VM options sdt.Run builds
// from it, the trace policy included.
func TestRunMatchesLibrary(t *testing.T) {
	img, err := workload.Load("gcc", 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []string{"ibtc:16384", "trace+ibtc:16384", "trace:3+ibtc:16384"} {
		t.Run(mech, func(t *testing.T) {
			var out strings.Builder
			if err := run([]string{"-w", "gcc", "-scale", "200", "-mech", mech}, &out); err != nil {
				t.Fatal(err)
			}
			vm, err := sdt.Run(img, "x86", mech, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf(" %d cycles ", vm.Result().Cycles)
			if !strings.Contains(out.String(), want) {
				t.Errorf("sdtrun printed\n%s\nwant%s(sdt.Run, %d traces)", out.String(), want, vm.Prof.TracesFormed)
			}
		})
	}
}
