package sdtdtest

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"time"
)

// Build compiles sdt/cmd/sdtd into dir and returns the binary's path,
// for drivers not handed a prebuilt binary.
func Build(dir string) (string, error) {
	bin := filepath.Join(dir, "sdtd")
	cmd := exec.Command("go", "build", "-o", bin, "sdt/cmd/sdtd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building sdtd: %w", err)
	}
	return bin, nil
}

// listenRE matches the startup line sdtd prints to stdout once its
// listener is bound.
var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// Daemon is a child sdtd process with a Client bound to its address.
type Daemon struct {
	Client
	cmd    *exec.Cmd
	exited chan struct{} // closed once the child has been reaped
	err    error         // the child's exit status; read only after exited closes
}

// Start boots bin on an ephemeral loopback port with its result store
// in storeDir, and returns once the daemon reports its listen address.
// extra flags follow the base set, so an -addr among them (a cluster
// member needs the port its peers were told) replaces the ephemeral
// one. The child's stderr is passed through.
func Start(bin, storeDir string, extra ...string) (*Daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-store", storeDir}, extra...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &Daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drain stdout to EOF before reaping: Wait closes the pipe.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.Base = <-addr:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("sdtd exited before listening: %v", d.err)
	case <-time.After(20 * time.Second):
		d.Kill()
		return nil, errors.New("sdtd did not report a listen address in 20s")
	}
}

// Signal sends sig to the daemon (e.g. SIGTERM to start a drain).
func (d *Daemon) Signal(sig os.Signal) error {
	return d.cmd.Process.Signal(sig)
}

// Kill SIGKILLs the daemon and returns once it has been reaped. It is
// idempotent and safe after WaitExit: on a child already gone the
// signal fails harmlessly and the exit is already recorded.
func (d *Daemon) Kill() {
	_ = d.cmd.Process.Kill() // fails only when the child has already exited
	<-d.exited
}

// WaitExit waits up to timeout for the daemon to exit on its own and
// requires a clean exit status. On timeout it kills the daemon.
func (d *Daemon) WaitExit(timeout time.Duration) error {
	select {
	case <-d.exited:
		if d.err != nil {
			return fmt.Errorf("sdtd exited uncleanly: %v", d.err)
		}
		return nil
	case <-time.After(timeout):
		d.Kill()
		return fmt.Errorf("sdtd did not exit within %v", timeout)
	}
}

// ReservePorts grabs n distinct loopback addresses and releases them, so
// a static cluster membership can be written down before any daemon
// starts. It returns base URLs ("http://127.0.0.1:PORT").
func ReservePorts(n int) ([]string, error) {
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		// Held open until every port is chosen, so the n are distinct.
		defer ln.Close()
		urls = append(urls, "http://"+ln.Addr().String())
	}
	return urls, nil
}

// WaitRing polls each node's /healthz until it reports the cluster ring
// at epoch with members members, all up, or the timeout passes. A fleet
// just booted is at epoch 0; every join or leave increments it.
func WaitRing(nodes []*Daemon, epoch uint64, members int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, d := range nodes {
		for {
			_, h, err := d.Health()
			up := 0
			for _, p := range h.Cluster {
				if p.Up {
					up++
				}
			}
			if err == nil && h.ClusterEpoch == epoch && len(h.Cluster) == members && up == members {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never converged on epoch %d with %d members up (last: epoch=%d members=%d up=%d err=%v)",
					d.Base, epoch, members, h.ClusterEpoch, len(h.Cluster), up, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}
