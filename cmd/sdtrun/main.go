// Sdtrun executes a guest program natively or under the software dynamic
// translator with a chosen indirect-branch mechanism.
//
// Usage:
//
//	sdtrun [flags] prog.s|prog.img
//	sdtrun [flags] -w gcc
//
//	-w name     run a built-in workload instead of a file
//	-scale n    workload scale (0 = the workload's default)
//	-native     run on the reference machine instead of the SDT
//	-mech spec  IB mechanism spec (default ibtc:16384)
//	-arch name  host cost model: x86, sparc or arm (default x86)
//	-limit n    instruction budget (default 2e9)
//	-profile    print the SDT profile / native counts after the run
//	-list       list built-in workloads
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sdt/internal/core"
	"sdt/internal/hostarch"
	"sdt/internal/ib"
	"sdt/internal/isa"
	"sdt/internal/machine"
	"sdt/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sdtrun:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sdtrun", flag.ExitOnError)
	wl := fs.String("w", "", "built-in workload name")
	scale := fs.Int("scale", 0, "workload scale (0 = default)")
	native := fs.Bool("native", false, "run natively (no SDT)")
	mech := fs.String("mech", "ibtc:16384", "IB mechanism spec")
	arch := fs.String("arch", "x86", "host cost model: x86, sparc or arm")
	limit := fs.Uint64("limit", 0, "instruction budget (0 = default)")
	prof := fs.Bool("profile", false, "print profile after the run")
	list := fs.Bool("list", false, "list built-in workloads")
	_ = fs.Parse(args) // ExitOnError: a bad flag prints usage and exits 2

	if *list {
		for _, name := range workload.Names() {
			s, _ := workload.Get(name)
			fmt.Fprintf(out, "%-16s %-12s modeled after %s\n", name, s.IBClass, s.Model)
		}
		return nil
	}

	img, err := workload.Load(*wl, *scale, fs.Args())
	if err != nil {
		return err
	}
	model, err := hostarch.ByName(*arch)
	if err != nil {
		return err
	}

	if *native {
		m, err := machine.New(img, model)
		if err != nil {
			return err
		}
		if err := m.Run(*limit); err != nil {
			return err
		}
		report(out, m.Result(), fmt.Sprintf("native/%s", *arch))
		if *prof {
			c := m.Counts
			fmt.Fprintf(out, "counts: loads=%d stores=%d branches=%d (taken %d) calls=%d\n",
				c.Loads, c.Stores, c.Branches, c.Taken, c.Calls)
			fmt.Fprintf(out, "IBs: ret=%d ijump=%d icall=%d (%.1f per 1k instructions)\n",
				c.IB[isa.IBReturn], c.IB[isa.IBJump], c.IB[isa.IBCall], c.IBPer1K())
		}
		return nil
	}

	cfg, err := ib.Parse(*mech)
	if err != nil {
		return err
	}
	vm, err := core.New(img, cfg.Options(model))
	if err != nil {
		return err
	}
	if err := vm.Run(*limit); err != nil {
		return err
	}
	report(out, vm.Result(), fmt.Sprintf("sdt/%s/%s", *arch, cfg.Handler.Name()))
	if *prof {
		vm.Prof.Dump(out, vm.Env.Cycles)
	}
	return nil
}

func report(out io.Writer, r machine.Result, how string) {
	fmt.Fprintf(out, "%s: %d instructions, %d cycles (CPI %.2f), exit=%d\n",
		how, r.Instret, r.Cycles, float64(r.Cycles)/float64(max(r.Instret, 1)), r.ExitCode)
	fmt.Fprintf(out, "output: %d values, checksum %#016x\n", r.OutCount, r.Checksum)
}
