// Command sketchd serves the multi-tenant sketch registry over HTTP: the
// serving tier of the distributed pattern — edge processes sketch locally,
// ship O(polylog) bytes or raw update frames, sketchd folds them (exactly,
// by sketch linearity) and answers sample queries.
//
//	sketchd -addr :8080 -data /var/lib/sketchd
//	sketchd -addr 127.0.0.1:0 -data ./state -fanin 128
//
// The first stdout line is "sketchd: listening on ADDR" with the bound
// address — scripts and the e2e harness parse it, so with -addr :0 the
// kernel-picked port is discoverable.
//
// Durability: every registered sketch persists under -data. Raw updates are
// journaled write-ahead and sealed into generations; pre-sketched uploads
// seal on their own cadence. SIGTERM/SIGINT drains: in-flight requests
// finish, every sketch checkpoints, and a restart recovers the registry
// byte-identically. SIGKILL loses at most the un-sealed upload tail (raw
// updates survive via the journal).
//
// REPRO_FAULTS=seed:rate enables deterministic fault injection on the
// engine and checkpoint paths (chaos testing; see internal/faultinject).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/sketchd"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7931", "listen address (host:port; :0 picks a free port)")
	data := flag.String("data", "", "durable state directory (empty = in-memory only, no crash recovery)")
	ckptEvery := flag.Int("checkpoint-every", 0, "raw updates between durable generations per sketch (0 = default 65536)")
	uploadEvery := flag.Int("upload-checkpoint-every", 0, "sketch uploads between durable seals per sketch (0 = default 64)")
	fanIn := flag.Int("fanin", 0, "merge-tree leaf fan-in (0 = default 64)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	flag.Parse()

	inj, err := faultinject.FromEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sketchd: %v\n", err)
		os.Exit(2)
	}
	if err := run(*addr, sketchd.RegistryConfig{
		Dir:                   *data,
		CheckpointEvery:       *ckptEvery,
		UploadCheckpointEvery: *uploadEvery,
		FanIn:                 *fanIn,
		Injector:              inj,
	}, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "sketchd: %v\n", err)
		os.Exit(1)
	}
}

func run(addr string, cfg sketchd.RegistryConfig, drainTimeout time.Duration) error {
	reg, err := sketchd.OpenRegistry(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("sketchd: listening on %s\n", ln.Addr())

	srv := &http.Server{
		Handler:           sketchd.NewServer(reg),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "sketchd: %v: draining\n", sig)
	case err := <-errc:
		reg.Drain() //nolint:errcheck // the serve error is the story here
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "sketchd: shutdown: %v\n", err)
	}
	if err := reg.Drain(); err != nil {
		return fmt.Errorf("draining registry: %w", err)
	}
	fmt.Fprintln(os.Stderr, "sketchd: drained, all sketches sealed")
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
