package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/service"
	"github.com/spechpc/spechpc-sim/internal/spec"
	"github.com/spechpc/spechpc-sim/internal/surrogate"
)

// schedWorkers pins the scheduler pool, so the benchmark measures the same
// configuration whatever the host's core count.
const schedWorkers = 2

// daemon is spechpcd wired as `spechpcd -cache-dir <dir>/store -artifacts
// <dir>/artifacts -surrogate` wires it, served in process on a loopback
// listener.
type daemon struct {
	ds    *campaign.DirStore
	sched *campaign.Scheduler
	idx   *surrogate.Index
	svc   *service.Server
	ts    *httptest.Server
}

// startDaemon boots a daemon on the store under dir, warm-starting the
// surrogate from whatever the store holds. A non-nil tracer wraps the
// store, the runner, the predictor and the HTTP handler; nothing else
// differs from the stock wiring.
func startDaemon(dir string, tr *tracer) (*daemon, error) {
	ds, err := campaign.NewDirStore(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	var store campaign.Store = ds
	if tr != nil {
		store = &tracedStore{inner: ds, tr: tr}
	}
	sched := campaign.NewScheduler(schedWorkers, store)
	idx := surrogate.NewIndex()
	if _, err := idx.FitStore(ds); err != nil {
		return nil, fmt.Errorf("surrogate warm start: %w", err)
	}
	if _, err := idx.Load(ds.ModelsDir()); err != nil {
		return nil, fmt.Errorf("surrogate model load: %w", err)
	}
	art := filepath.Join(dir, "artifacts")
	if err := os.MkdirAll(art, 0o755); err != nil {
		return nil, err
	}
	svc := service.New(sched, service.Options{Surrogate: idx, ArtifactDir: art})
	var h http.Handler = svc.Handler()
	if tr != nil {
		sched.SetRunner(tr.runner(spec.Run))
		sched.SetPredictor(&tracedPredictor{inner: idx, tr: tr})
		h = tr.middleware(h)
	}
	return &daemon{ds: ds, sched: sched, idx: idx, svc: svc, ts: httptest.NewServer(h)}, nil
}

func (d *daemon) url() string { return d.ts.URL }

// close shuts the daemon down the way spechpcd does on SIGTERM, saving the
// fitted surrogate models next to the store.
func (d *daemon) close() error {
	d.ts.Close()
	d.svc.Close()
	d.sched.Close()
	_, err := d.idx.Save(d.ds.ModelsDir())
	return err
}

// setUp builds one workload's warm state under dir and returns the
// daemon that serves the timed phase. For serve-mix that is a first
// daemon simulating the warm grid into the store, shut down, and a
// second one restarted on the same store: the memo starts empty while
// the store and the surrogate are warm.
func setUp(w *workload, dir string, tr *tracer) (*daemon, error) {
	if len(w.warmGrid) > 0 {
		d, err := startDaemon(dir, tr)
		if err != nil {
			return nil, err
		}
		if err := newClient(d.url(), nil).warm(w.warmGrid); err != nil {
			d.close()
			return nil, fmt.Errorf("warm grid: %w", err)
		}
		if err := d.close(); err != nil {
			return nil, fmt.Errorf("warm grid shutdown: %w", err)
		}
	}
	d, err := startDaemon(dir, tr)
	if err != nil {
		return nil, err
	}
	if err := newClient(d.url(), nil).ready(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}
