// Command fdpserved is the simulation job service daemon: an HTTP JSON
// API over a bounded worker pool, with a content-addressed on-disk result
// store so identical submissions are answered without re-simulating.
//
// Usage:
//
//	fdpserved -addr :8080 -cache-dir /var/cache/fdpsim
//	fdpserved -addr 127.0.0.1:0 -workers 4 -queue 128 -job-timeout 5m
//	fdpserved -log-format json -log-level debug -pprof-addr 127.0.0.1:6060
//
// API (see the README's "Running the service" section for curl examples):
//
//	POST   /v1/jobs             submit a job (202; 200 on a cache hit;
//	                            429 + Retry-After when the queue is full)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        poll a job
//	GET    /v1/jobs/{id}/events per-FDP-interval progress via SSE
//	GET    /v1/jobs/{id}/trace  FDP decision trace (JSONL; ?format=chrome)
//	GET    /v1/jobs/{id}/spans  fabric spans (?format=chrome for Perfetto)
//	DELETE /v1/jobs/{id}        cancel (running jobs keep partial results)
//	POST   /v1/sweeps           submit a parameter grid (docs/SWEEPS.md)
//	GET    /v1/sweeps/{id}/events aggregate sweep progress via SSE
//	GET    /v1/sweeps/{id}/results merged results (?format=text for tables)
//	GET    /v1/sweeps/{id}/trace whole-sweep fabric trace (Chrome/Perfetto)
//	GET    /debug/events        fabric-span flight recorder
//	GET    /metrics             Prometheus text metrics
//	GET    /healthz             liveness (503 while draining)
//
// Multi-tenant fair scheduling: -tenant name:weight[:maxrunning[:maxqueued]]
// registers scheduler tenants (repeatable); -strict-tenants closes the
// roster. Worker fleets: several fdpserved processes sharing one
// -cache-dir coordinate via -fleet-worker names and -lease claim leases so
// each configuration is simulated once fleet-wide (docs/SWEEPS.md).
//
// Logs are structured (log/slog): -log-format selects text or json,
// -log-level the floor (HTTP scrape endpoints log at debug). -pprof-addr
// serves net/http/pprof on a separate listener, off by default and best
// bound to loopback — the profiler exposes heap and goroutine internals
// and belongs on an operator port, not the public API one.
//
// SIGINT/SIGTERM begin a graceful shutdown: intake stops, in-flight
// simulations are cancelled at their next FDP interval boundary (their
// partial results are preserved and reported to pollers/SSE subscribers),
// and the process exits once the pool drains or -drain expires.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fdpsim/internal/cli"
	"fdpsim/internal/service"
	"fdpsim/internal/store"
)

// tenantFlags collects repeated -tenant flags into a scheduler roster.
// Each value is "name:weight[:maxrunning[:maxqueued]]"; weight alone is
// enough for plain fair-sharing.
type tenantFlags map[string]service.TenantConfig

func (t tenantFlags) String() string {
	parts := make([]string, 0, len(t))
	for name, cfg := range t {
		parts = append(parts, fmt.Sprintf("%s:%d:%d:%d", name, cfg.Weight, cfg.MaxRunning, cfg.MaxQueued))
	}
	return strings.Join(parts, ",")
}

func (t tenantFlags) Set(v string) error {
	fields := strings.Split(v, ":")
	if fields[0] == "" || len(fields) > 4 {
		return fmt.Errorf("want name:weight[:maxrunning[:maxqueued]], got %q", v)
	}
	var cfg service.TenantConfig
	nums := []*int{&cfg.Weight, &cfg.MaxRunning, &cfg.MaxQueued}
	for i, f := range fields[1:] {
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 {
			return fmt.Errorf("bad number %q in %q", f, v)
		}
		*nums[i] = n
	}
	t[fields[0]] = cfg
	return nil
}

// newLogger builds the process logger from the -log-format/-log-level
// flags; unknown values are usage errors (exit 2).
func newLogger(format, level string) *slog.Logger {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		cli.Fatalf("fdpserved", cli.ExitUsage, "unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts))
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	default:
		cli.Fatalf("fdpserved", cli.ExitUsage, "unknown -log-format %q (want text or json)", format)
		panic("unreachable")
	}
}

// pprofHandler mounts the net/http/pprof endpoints on an explicit mux
// (never the DefaultServeMux, which third-party imports can pollute).
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
		workers    = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 64, "FIFO queue depth; submissions beyond it get 429")
		cacheDir   = flag.String("cache-dir", "", "content-addressed result store directory (empty = in-memory cache only)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-job wall-clock budget; expiry cancels at the next interval boundary (0 = none)")
		drain      = flag.Duration("drain", 30*time.Second, "shutdown budget for draining in-flight simulations")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled; bind to loopback)")
		version    = flag.Bool("version", false, "print build information and exit")

		strictTenants = flag.Bool("strict-tenants", false, "reject jobs and sweeps naming a tenant outside the -tenant roster")
		fleetWorker   = flag.String("fleet-worker", "", "worker name in a shared-store fleet (empty = standalone; requires -cache-dir)")
		lease         = flag.Duration("lease", 30*time.Second, "fleet claim lease; expired leases are stolen by live workers")
		sseKeepalive  = flag.Duration("sse-keepalive", 15*time.Second, "idle interval before SSE streams emit a ': keepalive' comment frame (<=0 disables)")
	)
	tenants := tenantFlags{}
	flag.Var(tenants, "tenant", "register a scheduler tenant as name:weight[:maxrunning[:maxqueued]] (repeatable)")
	flag.Parse()

	if *version {
		cli.PrintVersion("fdpserved")
		return
	}

	logger := newLogger(*logFormat, *logLevel)
	logger.Info("starting", "version", cli.Version("fdpserved"))

	cfg := service.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		JobTimeout:    *jobTimeout,
		Logger:        logger,
		Tenants:       tenants,
		StrictTenants: *strictTenants,
		FleetWorker:   *fleetWorker,
		LeaseTTL:      *lease,
		SSEKeepalive:  *sseKeepalive,
	}
	if *sseKeepalive <= 0 {
		cfg.SSEKeepalive = -1 // 0 in the Config means "default"; the flag's 0 means off
	}
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir)
		cli.FatalIf("fdpserved", err)
		cfg.Store = st
		logger.Info("result store opened", "dir", st.Dir(), "entries", st.Len())
	}
	if *fleetWorker != "" && *cacheDir == "" {
		cli.Fatalf("fdpserved", cli.ExitUsage, "-fleet-worker requires -cache-dir (the fleet coordinates through the shared store)")
	}
	srv := service.New(cfg)

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		cli.FatalIf("fdpserved", err)
		logger.Info("pprof listening", "addr", "http://"+pln.Addr().String()+"/debug/pprof/")
		go func() {
			if err := http.Serve(pln, pprofHandler()); err != nil {
				logger.Warn("pprof server stopped", "error", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	cli.FatalIf("fdpserved", err)
	logger.Info("listening", "addr", "http://"+ln.Addr().String())

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		cli.FatalIf("fdpserved", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	logger.Info("draining", "budget", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		cli.Fatalf("fdpserved", cli.ExitError, "drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		cli.Fatalf("fdpserved", cli.ExitError, "http shutdown: %v", err)
	}
	logger.Info("drained cleanly")
}
