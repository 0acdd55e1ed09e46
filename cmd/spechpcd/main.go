// Command spechpcd serves the simulated SPEChpc 2021 evaluation over
// HTTP: a long-lived daemon wrapping one asynchronous campaign
// scheduler, so any number of clients can submit benchmark jobs and
// declarative scenarios, poll their progress, and fetch results as JSON
// or CSV. Identical requests coalesce onto one simulation; with
// -cache-dir, results persist across restarts and repeated queries are
// served from disk without simulating (see docs/SERVICE.md for the API
// reference).
//
// Usage:
//
//	spechpcd -addr 127.0.0.1:8080 -cache-dir ~/.cache/spechpc-sim
//	spechpcd -addr 127.0.0.1:0 -quick          # ephemeral port, fast sweeps
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/api/v1/jobs -d '{"benchmark":"lbm","cluster":"A","ranks":72}'
//
// A daemon can also serve as one tier of a fleet (docs/FLEET.md):
//
//	spechpcd -coordinator -cache-dir /srv/store     # front door: dispatches to workers
//	spechpcd -join http://coord:8080 -worker-id w1  # worker: simulates dispatched jobs
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: in-flight HTTP
// requests get a drain window, queued-but-unstarted jobs are dropped,
// and simulations already running complete and persist before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/fleet"
	"github.com/spechpc/spechpc-sim/internal/service"
	"github.com/spechpc/spechpc-sim/internal/surrogate"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "scheduler worker pool size")
	cacheDir := flag.String("cache-dir", "", "persistent result store directory (results survive restarts)")
	quick := flag.Bool("quick", false, "reduced scenario sweep resolution")
	clusters := flag.String("clusters", "", "comma-separated default clusters for scenario sweeps (default: the paper's two)")
	artifactDir := flag.String("artifacts", "", "scenario CSV artifact root (empty = per-run temp directories)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain window for in-flight HTTP requests")
	surro := flag.Bool("surrogate", false, "serve mode=fast queries from analytic surrogate models fitted over cached results")
	maxBound := flag.Float64("surrogate-max-bound", surrogate.DefaultMaxBound, "surrogate accuracy tolerance: queries whose error bound exceeds it simulate exactly")
	coordinator := flag.Bool("coordinator", false, "run as fleet coordinator: dispatch jobs to registered workers instead of simulating locally")
	join := flag.String("join", "", "run as fleet worker of the coordinator at this base URL (e.g. http://coord:8080)")
	advertise := flag.String("advertise", "", "worker: base URL the coordinator dispatches to (default http://<listen address>)")
	workerID := flag.String("worker-id", "", "worker: stable identity for rendezvous placement; keep it across restarts to keep the key share (default host:port of the advertised URL)")
	heartbeatEvery := flag.Duration("heartbeat", fleet.DefaultHeartbeatEvery, "worker: heartbeat period")
	suspectAfter := flag.Duration("suspect-after", fleet.DefaultSuspectAfter, "coordinator: heartbeat silence before a worker is suspect")
	deadAfter := flag.Duration("dead-after", fleet.DefaultDeadAfter, "coordinator: heartbeat silence before a worker is dead")
	rateLimit := flag.Float64("rate-limit", 0, "per-client submission rate in requests/second (0 = unlimited)")
	rateBurst := flag.Float64("rate-burst", 0, "per-client submission burst (default: the rate, min 1)")
	maxQueue := flag.Int("max-queue", 0, "shed submissions once the scheduler queue reaches this depth (0 = unbounded)")
	degraded := flag.Bool("degraded", false, "answer queue-saturated job submissions from the surrogate fast tier instead of shedding (requires -surrogate and -max-queue)")
	simWorkers := flag.Int("sim-workers", 0,
		"intra-job parallel engine workers for multi-node jobs (0 = grant idle cores when the queue is empty, -1 = always serial)")
	flag.Parse()

	if *coordinator && *join != "" {
		fatal(errors.New("-coordinator and -join are mutually exclusive: a process is either the front door or a worker"))
	}
	if *degraded && !*surro {
		fatal(errors.New("-degraded needs -surrogate: degraded mode answers from the surrogate fast tier"))
	}

	// Listen before wiring stores: a worker's default identity and
	// advertised URL come from the resolved listen address.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	role := "standalone"
	var selfWorker fleet.Worker
	if *join != "" {
		role = "worker"
		adv := *advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		id := *workerID
		if id == "" {
			u, err := url.Parse(adv)
			if err != nil || u.Host == "" {
				fatal(fmt.Errorf("cannot derive -worker-id from -advertise %q: %v", adv, err))
			}
			id = u.Host
		}
		selfWorker = fleet.Worker{ID: id, URL: adv, Capacity: *parallel}
	}
	if *coordinator {
		role = "coordinator"
	}

	var dirStore *campaign.DirStore
	var store campaign.Store
	if *cacheDir != "" {
		ds, err := campaign.NewDirStore(*cacheDir)
		if err != nil {
			fatal(err)
		}
		dirStore, store = ds, ds
	}
	if *join != "" {
		// Workers publish every result to the coordinator's fleet-wide
		// store; a local cache dir becomes the warm tier in front of it.
		remote := &fleet.RemoteStore{Base: *join, WorkerID: selfWorker.ID}
		if dirStore != nil {
			store = &fleet.Tiered{Local: dirStore, Remote: remote}
		} else {
			store = remote
		}
	}
	sched := campaign.NewScheduler(*parallel, store)
	sched.SetSimWorkers(*simWorkers)

	// With -surrogate, warm-start the fast tier from every result already
	// persisted, then keep learning: the scheduler feeds each fresh exact
	// simulation back into the index (campaign.Observer).
	var idx *surrogate.Index
	if *surro {
		idx = surrogate.NewIndex()
		idx.MaxBound = *maxBound
		if dirStore != nil {
			n, err := idx.FitStore(dirStore)
			if err != nil {
				fmt.Fprintln(os.Stderr, "spechpcd: surrogate warm-start:", err)
			}
			if _, err := idx.Load(dirStore.ModelsDir()); err != nil {
				fmt.Fprintln(os.Stderr, "spechpcd: surrogate model load:", err)
			}
			st := idx.Stats()
			fmt.Printf("spechpcd: surrogate warm-start: %d cached results, %d/%d families fitted\n",
				n, st.Models, st.Families)
		}
	}

	var clusterList []string
	if *clusters != "" {
		for _, n := range strings.Split(*clusters, ",") {
			if n = strings.TrimSpace(n); n != "" {
				clusterList = append(clusterList, n)
			}
		}
	}
	var coord *fleet.Coordinator
	if *coordinator {
		coord = fleet.NewCoordinator(fleet.NewRegistry(*suspectAfter, *deadAfter), nil)
	}
	svc := service.New(sched, service.Options{
		Quick:           *quick,
		DefaultClusters: clusterList,
		ArtifactDir:     *artifactDir,
		Surrogate:       idx,
		Fleet:           coord,
		Degraded:        *degraded,
		Admission: fleet.AdmissionConfig{
			RatePerClient: *rateLimit,
			Burst:         *rateBurst,
			MaxQueue:      *maxQueue,
		},
	})

	// The resolved address line is load-bearing: scripts/service_smoke.sh
	// and scripts/fleet_smoke.sh start daemons on ephemeral ports and
	// parse the address from its prefix.
	fmt.Printf("spechpcd: listening on http://%s (role=%s workers=%d cache-dir=%q)\n",
		ln.Addr(), role, sched.Workers(), *cacheDir)

	srv := &http.Server{Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *join != "" {
		// Membership loop: register, heartbeat, re-register if the
		// coordinator restarts. It never gives up — the coordinator's
		// suspect/dead thresholds decide how much silence matters.
		go fleet.Join(ctx, fleet.JoinConfig{
			Coordinator: *join,
			Self:        selfWorker,
			Every:       *heartbeatEvery,
		})
		fmt.Printf("spechpcd: joining fleet at %s as %s (advertising %s)\n",
			*join, selfWorker.ID, selfWorker.URL)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "spechpcd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "spechpcd: drain window expired:", err)
	}
	svc.Close()
	sched.Close() // drops queued jobs, waits for running simulations
	if idx != nil && dirStore != nil {
		// Persist the fitted models (own "m1-" prefix, models/ subdir) so
		// the next boot skips refitting; raw results stay authoritative.
		if n, err := idx.Save(dirStore.ModelsDir()); err != nil {
			fmt.Fprintln(os.Stderr, "spechpcd: surrogate model save:", err)
		} else {
			fmt.Fprintf(os.Stderr, "spechpcd: saved %d surrogate models\n", n)
		}
	}
	fmt.Fprintln(os.Stderr, sched.Stats())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spechpcd:", err)
	os.Exit(1)
}
