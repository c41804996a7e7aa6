// Command monitord is the long-running fleet monitor: it tails a live
// directory of per-node log files — the same files cmd/memscan appends —
// and serves the continuously updated study over HTTP.
//
// Usage:
//
//	monitord -dir DIR [-addr :8080] [-interval 1s] [-controller 02-04]
//
// Endpoints:
//
//	GET /study       full study report (JSON; ETag "<epoch>", 304 on If-None-Match)
//	GET /metrics     Prometheus text exposition
//	GET /healthz     liveness + snapshot epoch
//	GET /nodes       per-node verdicts
//	GET /nodes/{id}  one node's verdict
//
// The daemon polls the directory every -interval, ingests appended lines
// and newly created node files, and publishes an immutable snapshot per
// round that changed anything, re-deriving only the nodes whose files
// changed; HTTP readers never contend with ingest. Each snapshot's report
// is byte-identical to `analyze -from-logs DIR` over the directory as that
// round read it (DESIGN.md §13). SIGTERM or SIGINT drains
// gracefully: in-flight requests finish and the tail loop winds down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"unprotected/internal/monitor"
)

func main() {
	dir := flag.String("dir", "", "log directory to tail (required)")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	interval := flag.Duration("interval", time.Second, "tail poll interval")
	controller := flag.String("controller", "", "permanently failing node to exclude from MTBF analyses (e.g. 02-04)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown timeout")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "monitord: -dir is required")
		os.Exit(2)
	}

	m, err := monitor.New(*dir,
		monitor.WithInterval(*interval),
		monitor.WithController(*controller))
	if err != nil {
		fmt.Fprintln(os.Stderr, "monitord:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runErr := make(chan error, 1)
	go func() { runErr <- m.Run(ctx) }()

	srv := &http.Server{Addr: *addr, Handler: m.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "monitord: tailing %s, serving on %s\n", *dir, *addr)

	exit := 0
	select {
	case <-ctx.Done():
		// Signal: drain in-flight requests, then wind the tail loop down.
		fmt.Fprintln(os.Stderr, "monitord: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "monitord: shutdown:", err)
			exit = 1
		}
		cancel()
		if err := <-runErr; err != nil {
			fmt.Fprintln(os.Stderr, "monitord:", err)
			exit = 1
		}
	case err := <-runErr:
		// The tail loop died (unreadable directory, corrupt line): the
		// daemon has nothing live left to serve.
		if err != nil {
			fmt.Fprintln(os.Stderr, "monitord:", err)
		}
		srv.Close()
		exit = 1
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "monitord:", err)
		}
		stop()
		exit = 1
	}
	os.Exit(exit)
}
