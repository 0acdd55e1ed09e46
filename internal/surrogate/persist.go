package surrogate

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// modelFormat is the schema generation of persisted model files; bump
// it whenever the sample projection or the family normalization
// changes, so stale files degrade to "no model" instead of fitting
// garbage.
const modelFormat = 1

// modelPrefix distinguishes model files from the store's "v1-"
// simulation records: scripts/cache_stats.sh reports the two classes
// separately and its --prune mode evicts raw records before fitted
// models.
const modelPrefix = "m1-"

// modelFile is the persisted form of one family: the normalized spec,
// the representative report, and the raw observed samples. Persisting
// samples rather than fitted coefficients keeps the file format
// independent of the fitting internals — a load refits with the current
// code.
type modelFile struct {
	Format  int             `json:"format"`
	Key     string          `json:"key"` // family key ("f1-...")
	Bench   string          `json:"bench"`
	Cluster string          `json:"cluster"`
	Spec    spec.RunSpec    `json:"spec"`
	Report  bench.RunReport `json:"report"`
	Samples []sampleJSON    `json:"samples"`
}

// sampleJSON is one grid point in grep-friendly named form.
type sampleJSON struct {
	Ranks       int     `json:"ranks"`
	ClockHz     float64 `json:"clock_hz"`
	Wall        float64 `json:"wall"`
	FlopsScalar float64 `json:"flops_scalar"`
	FlopsSIMD   float64 `json:"flops_simd"`
	BytesL2     float64 `json:"bytes_l2"`
	BytesL3     float64 `json:"bytes_l3"`
	BytesMem    float64 `json:"bytes_mem"`
	TimeExec    float64 `json:"time_exec"`
	TimeStall   float64 `json:"time_stall"`
	TimeMPI     float64 `json:"time_mpi"`
	ChipEnergy  float64 `json:"chip_energy"`
	DRAMEnergy  float64 `json:"dram_energy"`
}

func toJSON(s sample) sampleJSON {
	return sampleJSON{
		Ranks: s.ranks, ClockHz: s.clockHz,
		Wall:        s.vals[qWall],
		FlopsScalar: s.vals[qFlopsScalar],
		FlopsSIMD:   s.vals[qFlopsSIMD],
		BytesL2:     s.vals[qBytesL2],
		BytesL3:     s.vals[qBytesL3],
		BytesMem:    s.vals[qBytesMem],
		TimeExec:    s.vals[qTimeExec],
		TimeStall:   s.vals[qTimeStall],
		TimeMPI:     s.vals[qTimeMPI],
		ChipEnergy:  s.vals[qChipE],
		DRAMEnergy:  s.vals[qDRAME],
	}
}

func fromJSON(j sampleJSON) sample {
	return sample{ranks: j.Ranks, clockHz: j.ClockHz, vals: [nQuant]float64{
		qWall:        j.Wall,
		qFlopsScalar: j.FlopsScalar,
		qFlopsSIMD:   j.FlopsSIMD,
		qBytesL2:     j.BytesL2,
		qBytesL3:     j.BytesL3,
		qBytesMem:    j.BytesMem,
		qTimeExec:    j.TimeExec,
		qTimeStall:   j.TimeStall,
		qTimeMPI:     j.TimeMPI,
		qChipE:       j.ChipEnergy,
		qDRAME:       j.DRAMEnergy,
	}}
}

// Save persists every family's observed samples under dir, one
// "m1-<family-hash>.json" per family, written atomically. The natural
// dir is campaign.DirStore.ModelsDir(), keeping both oracle tiers under
// one -cache-dir.
func (x *Index) Save(dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("surrogate: saving models: %w", err)
	}
	x.mu.RLock()
	keys := make([]string, 0, len(x.families))
	for k := range x.families {
		keys = append(keys, k)
	}
	fams := make([]*family, 0, len(keys))
	for _, k := range keys {
		fams = append(fams, x.families[k])
	}
	x.mu.RUnlock()

	saved := 0
	for i, f := range fams {
		f.mu.Lock()
		mf := modelFile{
			Format:  modelFormat,
			Key:     keys[i],
			Bench:   f.norm.Benchmark,
			Spec:    f.norm,
			Report:  f.report,
			Samples: make([]sampleJSON, 0, len(f.samples)),
		}
		if f.norm.Cluster != nil {
			mf.Cluster = f.norm.Cluster.Name
		}
		for _, s := range f.sortedSamples() {
			mf.Samples = append(mf.Samples, toJSON(s))
		}
		f.mu.Unlock()
		if err := writeModelFile(dir, keys[i], mf); err != nil {
			return saved, err
		}
		saved++
	}
	return saved, nil
}

// modelFileName maps a family key to its on-disk basename.
func modelFileName(familyKey string) string {
	return modelPrefix + strings.TrimPrefix(familyKey, "f1-") + ".json"
}

func writeModelFile(dir, key string, mf modelFile) error {
	data, err := json.Marshal(mf)
	if err != nil {
		return fmt.Errorf("surrogate: encode model %s: %w", key, err)
	}
	name := filepath.Join(dir, modelFileName(key))
	tmp, err := os.CreateTemp(dir, ".model.tmp-")
	if err != nil {
		return fmt.Errorf("surrogate: save model %s: %w", key, err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("surrogate: save model %s: %v/%v", key, werr, cerr)
	}
	if err := os.Rename(tmp.Name(), name); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("surrogate: save model %s: %w", key, err)
	}
	return nil
}

// Load seeds the index from every model file under dir. Corrupt,
// stale-format, or mis-keyed files are skipped — they degrade to
// no-model fallbacks, never to errors. Returns how many families were
// loaded.
func (x *Index) Load(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("surrogate: loading models: %w", err)
	}
	loaded := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, modelPrefix) || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		var mf modelFile
		if err := json.Unmarshal(data, &mf); err != nil {
			continue
		}
		if mf.Format != modelFormat || mf.Spec.Cluster == nil {
			continue
		}
		// Re-derive the family key from the spec: a hand-moved or
		// corrupted file must not alias another family.
		key := familyKey(mf.Spec)
		if mf.Key != key || modelFileName(key) != name {
			continue
		}
		x.seedFamily(key, mf)
		loaded++
	}
	return loaded, nil
}

// seedFamily installs a loaded family, merging samples into any
// existing one (first write per grid point wins, matching Observe).
func (x *Index) seedFamily(key string, mf modelFile) {
	x.mu.Lock()
	f := x.families[key]
	if f == nil {
		f = &family{norm: mf.Spec, report: mf.Report, samples: make(map[gridPoint]sample)}
		x.families[key] = f
	}
	x.mu.Unlock()
	f.mu.Lock()
	for _, j := range mf.Samples {
		if j.Ranks <= 0 || j.Wall <= 0 {
			continue
		}
		gp := gridPoint{ranks: j.Ranks, clockKHz: int64(j.ClockHz / 1e3)}
		if _, seen := f.samples[gp]; !seen {
			f.samples[gp] = fromJSON(j)
			f.dirty = true
		}
	}
	f.mu.Unlock()
}
