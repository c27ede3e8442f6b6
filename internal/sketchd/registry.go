package sketchd

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"

	streamsample "repro"
	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/stream"
)

// Spec declares a registered sketch: the kind, its construction parameters
// and the shared seed. The spec is the whole distributed contract for one
// sketch — every edge exporter that builds a local sketch from the same
// spec produces a same-seed replica the tier can fold exactly.
//
// Spec is both the create-request JSON body and the on-disk meta.json, so a
// restarted server rebuilds byte-identical zero-state replicas from it
// (sketch construction is a deterministic function of the spec). Build and
// Check look the kind up in the library's kind table, which holds a spec to
// the ranges and word budget Load holds serialized sketches to.
type Spec = streamsample.Spec

// errBadSpec marks an unconstructible spec or an invalid name; it surfaces
// as CodeBadRequest.
var errBadSpec = errors.New("sketchd: invalid sketch spec")

// nameRe bounds tenant and sketch names to one path-safe segment.
var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

func validName(s string) bool {
	return nameRe.MatchString(s) && s != "." && s != ".."
}

// RegistryConfig tunes the registry and the per-sketch engines under it.
// The zero value selects production defaults. Every sketch's engine runs one
// shard (one replica, one worker) with the engine's default batch size and
// queue depth: a served sketch is a few KiB, a registry hosts many, and even
// a single hot sketch ingests faster into one replica than into several that
// Merged must fold back together.
type RegistryConfig struct {
	// Dir is the durable root; "" disables persistence entirely (tests,
	// ephemeral tiers): engines run without a checkpoint store and restarts
	// start empty.
	Dir string
	// CheckpointEvery is the engine's periodic durable-generation interval
	// in accepted raw updates (default 1<<16).
	CheckpointEvery int
	// UploadCheckpointEvery seals the authoritative fold of pre-sketched
	// uploads into a durable generation every this many uploads (default
	// 64). Uploads between seals survive in memory but not a SIGKILL; the
	// ?durable=1 ingest form forces a seal before acknowledging.
	UploadCheckpointEvery int
	// FanIn is the leaf fan-in of every sketch's hierarchical merge tree
	// (default 64); the tree has mergeLeaves leaves.
	FanIn int
	// Injector drives deterministic fault injection through the engines and
	// checkpoint stores (chaos tests). Nil disables.
	Injector *faultinject.Injector
}

// mergeLeaves is the number of leaf aggregators in every sketch's merge tree.
const mergeLeaves = 8

func (c RegistryConfig) withDefaults() RegistryConfig {
	if c.CheckpointEvery < 1 {
		c.CheckpointEvery = 1 << 16
	}
	if c.UploadCheckpointEvery < 1 {
		c.UploadCheckpointEvery = 64
	}
	if c.FanIn < 1 {
		c.FanIn = 64
	}
	return c
}

type key struct{ tenant, name string }

// Registry is the multi-tenant sketch registry: the serving tier's state.
// All methods are safe for concurrent use.
type Registry struct {
	cfg     RegistryConfig
	mu      sync.RWMutex
	entries map[key]*entry

	created       atomic.Int64
	deleted       atomic.Int64
	rawUpdates    atomic.Int64
	sketchUploads atomic.Int64
	queries       atomic.Int64
	recovered     atomic.Int64
	quarantined   atomic.Int64
}

// entry is one registered sketch: a one-shard ingestion engine for raw
// updates (durably checkpointed), a hierarchical merge tree plus
// authoritative accumulator for pre-sketched uploads (sealed into its own
// generation store), and the spec that reconstructs zero-state replicas.
//
// Engine producer calls are serialized by mu (the engine's contract); the
// merge tree locks internally, so sketch uploads bypass mu entirely except
// at checkpoint seals.
type entry struct {
	tenant, name string
	spec         Spec
	specBytes    []byte // marshaled zero-state sketch: the same-seed replica template

	// delMu orders sketch uploads against deletion: IngestSketch holds it
	// shared across the deleted check, the tree fold and any durable seal,
	// while Delete and drain hold it exclusively to flip deleted — so an
	// upload that was ACKed is guaranteed to have landed before the tree
	// was discarded. Lock order is always delMu before mu.
	delMu   sync.RWMutex
	deleted atomic.Bool

	mu     sync.Mutex
	eng    *engine.Engine[streamsample.Sketch]
	engSt  *checkpoint.Store
	folded streamsample.Sketch // authoritative fold of sketch uploads
	foldSt *checkpoint.Store
	// foldedUploads counts uploads folded into `folded` over its lifetime;
	// foldedSealed is the count covered by the newest foldSt generation.
	foldedUploads int64
	foldedSealed  int64

	tree *MergeTree

	rawUpdates atomic.Int64
	queries    atomic.Int64
}

// tombstoneFile marks an entry directory whose delete was acknowledged but
// whose removal did not finish (crash or RemoveAll failure mid-delete).
// Recovery finishes the removal instead of resurrecting the sketch.
const tombstoneFile = "tombstone"

// OpenRegistry opens (and, when cfg.Dir is set, recovers) the registry.
// Recovery walks the data directory: every tenant/name with a readable
// meta.json is rebuilt — the engine adopts its checkpoint store's last good
// generation plus journal tail (exact, by linearity), and the authoritative
// upload fold reloads from its newest sealed generation. Tombstoned
// directories (interrupted deletes) are removed; an entry that fails to
// rebuild is quarantined under <Dir>/quarantine rather than allowed to keep
// the whole registry — every other tenant's sketches — from opening.
func OpenRegistry(cfg RegistryConfig) (*Registry, error) {
	r := &Registry{cfg: cfg.withDefaults(), entries: make(map[key]*entry)}
	if r.cfg.Dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(r.tenantsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("sketchd: opening registry dir: %w", err)
	}
	tenants, err := os.ReadDir(r.tenantsDir())
	if err != nil {
		return nil, fmt.Errorf("sketchd: scanning registry dir: %w", err)
	}
	for _, t := range tenants {
		if !t.IsDir() || !validName(t.Name()) {
			continue
		}
		names, err := os.ReadDir(filepath.Join(r.tenantsDir(), t.Name()))
		if err != nil {
			return nil, fmt.Errorf("sketchd: scanning tenant %s: %w", t.Name(), err)
		}
		for _, n := range names {
			if !n.IsDir() || !validName(n.Name()) {
				continue
			}
			dir := r.entryDir(t.Name(), n.Name())
			if _, serr := os.Stat(filepath.Join(dir, tombstoneFile)); serr == nil {
				if err := os.RemoveAll(dir); err != nil {
					return nil, fmt.Errorf("sketchd: finishing interrupted delete of %s/%s: %w", t.Name(), n.Name(), err)
				}
				continue
			}
			e, err := r.recoverEntry(t.Name(), n.Name())
			if err != nil {
				if qerr := r.quarantine(t.Name(), n.Name(), err); qerr != nil {
					return nil, fmt.Errorf("sketchd: recovering %s/%s: %v (quarantine also failed: %w)", t.Name(), n.Name(), err, qerr)
				}
				r.quarantined.Add(1)
				continue
			}
			r.entries[key{t.Name(), n.Name()}] = e
			r.recovered.Add(1)
		}
	}
	return r, nil
}

func (r *Registry) tenantsDir() string { return filepath.Join(r.cfg.Dir, "tenants") }

func (r *Registry) entryDir(tenant, name string) string {
	return filepath.Join(r.tenantsDir(), tenant, name)
}

// quarantine moves an unrecoverable entry directory out of the tenants tree
// (to <Dir>/quarantine/<tenant>/<name>, suffixed if occupied) so the rest
// of the registry still opens. The cause lands in a QUARANTINE file next to
// the moved state for the operator; nothing is deleted.
func (r *Registry) quarantine(tenant, name string, cause error) error {
	dst := filepath.Join(r.cfg.Dir, "quarantine", tenant)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	target := filepath.Join(dst, name)
	for i := 1; ; i++ {
		if _, err := os.Stat(target); errors.Is(err, fs.ErrNotExist) {
			break
		}
		target = filepath.Join(dst, fmt.Sprintf("%s.%d", name, i))
	}
	if err := os.Rename(r.entryDir(tenant, name), target); err != nil {
		return err
	}
	//nolint:errcheck // the reason file is best-effort operator breadcrumb
	_ = os.WriteFile(filepath.Join(target, "QUARANTINE"), []byte(cause.Error()+"\n"), 0o644)
	return nil
}

// newEntry wires one sketch's engine, merge tree and (when durable) stores
// around zero, the spec's zero-state sketch.
func (r *Registry) newEntry(tenant, name string, spec Spec, zero streamsample.Sketch) (*entry, error) {
	specBytes, err := zero.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("sketchd: marshaling spec template: %w", err)
	}
	// The factory reconstructs a zero-state same-seed replica from the spec
	// bytes alone. Load is pure, so it is safe for the engine's concurrent
	// respawn path; failure is impossible for bytes we produced ourselves,
	// and a panic here would be quarantined by the engine's supervisor.
	factory := func(int) streamsample.Sketch {
		s, err := streamsample.Load(specBytes)
		if err != nil {
			panic(fmt.Errorf("sketchd: spec template no longer loads: %w", err))
		}
		return s
	}
	e := &entry{
		tenant:    tenant,
		name:      name,
		spec:      spec,
		specBytes: specBytes,
		eng: engine.New(engine.Config{
			Shards:          1,
			CheckpointEvery: r.cfg.CheckpointEvery,
			Injector:        r.cfg.Injector,
		}, factory, mergeSketch),
	}
	e.tree = NewMergeTree(mergeLeaves, r.cfg.FanIn, func() (streamsample.Sketch, error) {
		return streamsample.Load(specBytes)
	})
	if r.cfg.Dir == "" {
		e.folded = factory(0)
		return e, nil
	}
	dir := r.entryDir(tenant, name)
	engSt, err := checkpoint.Open(filepath.Join(dir, "engine"), checkpoint.Options{Injector: r.cfg.Injector})
	if err != nil {
		e.eng.Close()
		return nil, err
	}
	// CheckpointTo adopts any pre-existing store state (last good generation
	// + journal tail) before sealing a fresh generation — this is the whole
	// crash-recovery path for raw updates. A generation of several blobs
	// (written by a wider engine) folds every blob into the one replica.
	if err := e.eng.CheckpointTo(engSt, marshalSketch, restoreSketch); err != nil {
		e.eng.Close()
		engSt.Close()
		return nil, err
	}
	foldSt, err := checkpoint.Open(filepath.Join(dir, "merged"), checkpoint.Options{Injector: r.cfg.Injector})
	if err != nil {
		e.eng.Close()
		engSt.Close()
		return nil, err
	}
	e.engSt, e.foldSt = engSt, foldSt
	rec, err := foldSt.Latest()
	switch {
	case err == nil && len(rec.States) >= 1:
		folded, lerr := streamsample.Load(rec.States[0])
		if lerr != nil {
			e.eng.Close()
			engSt.Close()
			foldSt.Close()
			return nil, fmt.Errorf("sketchd: reloading sealed upload fold: %w", lerr)
		}
		e.folded = folded
		if len(rec.States) >= 2 && len(rec.States[1]) == 8 {
			e.foldedUploads = int64(binary.LittleEndian.Uint64(rec.States[1]))
			e.foldedSealed = e.foldedUploads
		}
	case err == nil, errors.Is(err, checkpoint.ErrNoCheckpoint):
		e.folded = factory(0)
	default:
		e.eng.Close()
		engSt.Close()
		foldSt.Close()
		return nil, fmt.Errorf("sketchd: recovering sealed upload fold: %w", err)
	}
	return e, nil
}

func (r *Registry) recoverEntry(tenant, name string) (*entry, error) {
	metaPath := filepath.Join(r.entryDir(tenant, name), "meta.json")
	data, err := os.ReadFile(metaPath)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("sketchd: %s has no meta.json (half-created sketch?): %w", r.entryDir(tenant, name), err)
		}
		return nil, err
	}
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("sketchd: parsing %s: %w", metaPath, err)
	}
	zero, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return r.newEntry(tenant, name, spec, zero)
}

// Create registers a new sketch. Spec.Build holds the spec to its kind's row
// (ranges and word budget) before it allocates the zero-state template, and
// both happen BEFORE anything durable — a rejected create must leave zero
// trace on disk, or the dangling meta.json would poison every future
// recovery. The meta.json then lands via write-temp + rename so a crash
// mid-create never leaves a readable-but-wrong spec, and any later wiring
// failure removes the half-created directory again.
func (r *Registry) Create(tenant, name string, spec Spec) error {
	if !validName(tenant) || !validName(name) {
		return fmt.Errorf("%w: tenant and name must match %s", errBadSpec, nameRe)
	}
	zero, err := spec.Build()
	if err != nil {
		return fmt.Errorf("%w: %w", errBadSpec, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key{tenant, name}
	if _, ok := r.entries[k]; ok {
		return fmt.Errorf("%w: %s/%s", ErrExists, tenant, name)
	}
	dir := ""
	if r.cfg.Dir != "" {
		dir = r.entryDir(tenant, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("sketchd: creating %s: %w", dir, err)
		}
		meta, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		tmp := filepath.Join(dir, "meta.json.tmp")
		if err := os.WriteFile(tmp, meta, 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, filepath.Join(dir, "meta.json")); err != nil {
			return err
		}
	}
	e, err := r.newEntry(tenant, name, spec, zero)
	if err != nil {
		if dir != "" {
			//nolint:errcheck // best-effort cleanup; recovery quarantines leftovers
			_ = os.RemoveAll(dir)
		}
		return err
	}
	r.entries[k] = e
	r.created.Add(1)
	return nil
}

// Get resolves a registered sketch. An entry mid-delete (or stuck because
// its durable removal failed) is already unreachable: not found.
func (r *Registry) Get(tenant, name string) (*entry, error) {
	r.mu.RLock()
	e, ok := r.entries[key{tenant, name}]
	r.mu.RUnlock()
	if !ok || e.deleted.Load() {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, tenant, name)
	}
	return e, nil
}

// Delete unregisters a sketch, closes its engine and stores and removes its
// durable directory. Ordering matters: the durable state is tombstoned and
// removed BEFORE the key is unregistered, so a failed removal leaves the
// entry registered-but-dead (operations 404, Create refuses, a client retry
// reaches the removal again) instead of silently resurrecting the sketch
// from the orphaned directory at the next restart; a crash in between is
// finished by recovery via the tombstone.
func (r *Registry) Delete(tenant, name string) error {
	r.mu.RLock()
	k := key{tenant, name}
	e, ok := r.entries[k]
	r.mu.RUnlock()
	if !ok || e.deleted.Load() {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, tenant, name)
	}
	// Flip the flag under delMu held exclusively: every in-flight upload
	// (holding it shared) lands or fails first, and every later one sees
	// deleted. Then close the engine and stores under mu.
	e.delMu.Lock()
	already := e.deleted.Swap(true)
	e.delMu.Unlock()
	if !already {
		e.mu.Lock()
		e.eng.Close()
		if e.engSt != nil {
			e.engSt.Close()
		}
		if e.foldSt != nil {
			e.foldSt.Close()
		}
		e.mu.Unlock()
	}
	if r.cfg.Dir != "" {
		dir := r.entryDir(tenant, name)
		if err := os.WriteFile(filepath.Join(dir, tombstoneFile), nil, 0o644); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("sketchd: tombstoning %s/%s: %w", tenant, name, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return fmt.Errorf("sketchd: removing %s/%s state: %w", tenant, name, err)
		}
	}
	r.mu.Lock()
	if cur, ok := r.entries[k]; ok && cur == e {
		delete(r.entries, k)
		r.deleted.Add(1)
	}
	r.mu.Unlock()
	return nil
}

// Drain checkpoints and closes every entry — the SIGTERM path. After a
// clean Drain, a restart recovers every sketch byte-identically.
func (r *Registry) Drain() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var firstErr error
	for _, e := range r.entries {
		if err := e.drain(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// List snapshots the registered keys in stable order.
func (r *Registry) List() []SketchInfo {
	r.mu.RLock()
	infos := make([]SketchInfo, 0, len(r.entries))
	for _, e := range r.entries {
		if e.deleted.Load() {
			continue
		}
		infos = append(infos, e.info())
	}
	r.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Tenant != infos[j].Tenant {
			return infos[i].Tenant < infos[j].Tenant
		}
		return infos[i].Name < infos[j].Name
	})
	return infos
}

// ---------------------------------------------------------------------------
// entry operations
// ---------------------------------------------------------------------------

func mergeSketch(dst, src streamsample.Sketch) error { return dst.Merge(src) }
func marshalSketch(s streamsample.Sketch) ([]byte, error) {
	return s.MarshalBinary()
}
func restoreSketch(s streamsample.Sketch, b []byte) error { return s.UnmarshalBinary(b) }

// IngestRaw feeds one validated update batch through the sketch's engine
// (journaled write-ahead when durable). If journaling broke, the entry
// tries to heal itself with an immediate checkpoint — a fresh sealed
// generation re-establishes durability — and reports ErrNotDurable only
// when that fails; the in-memory state is exact either way.
func (e *entry) IngestRaw(batch []stream.Update) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deleted.Load() {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, e.tenant, e.name)
	}
	e.eng.ProcessBatch(batch)
	e.rawUpdates.Add(int64(len(batch)))
	if e.engSt == nil {
		return nil
	}
	if derr := e.eng.DurabilityErr(); derr != nil {
		if ckErr := e.eng.CheckpointNow(); ckErr != nil {
			return fmt.Errorf("%w: %v (heal attempt: %v)", ErrNotDurable, derr, ckErr)
		}
	}
	return nil
}

// IngestSketch folds one uploaded serialized sketch through the merge tree.
// durable forces an immediate checkpoint seal before returning; otherwise
// uploads become durable at the next periodic seal (every
// UploadCheckpointEvery uploads, on /checkpoint, on drain). The returned
// sealed flag reports whether a DURABLE seal actually happened — false on a
// registry without a durable dir even when durable was requested, so the
// acknowledgement never falsely implies the upload survives SIGKILL.
//
// The whole call holds delMu shared: the deleted check, the tree fold and
// the seal form one unit that either completes before a concurrent Delete
// flips the flag, or observes it and refuses — an ACKed upload can never
// land in a discarded tree, and a durable upload can never be accepted and
// then 404 on its own seal.
func (e *entry) IngestSketch(data []byte, durable bool, every int) (sealed bool, err error) {
	s, err := streamsample.Load(data)
	if err != nil {
		return false, err
	}
	e.delMu.RLock()
	defer e.delMu.RUnlock()
	if e.deleted.Load() {
		return false, fmt.Errorf("%w: %s/%s", ErrNotFound, e.tenant, e.name)
	}
	if err := e.tree.Add(s); err != nil {
		return false, err
	}
	if durable || e.tree.Pending() >= int64(every) {
		if err := e.Checkpoint(); err != nil {
			return false, err
		}
		return e.durableBacked(), nil
	}
	return false, nil
}

// durableBacked reports whether the entry has durable stores behind it
// (set once at construction, so reading without e.mu is safe).
func (e *entry) durableBacked() bool { return e.foldSt != nil }

// Checkpoint seals everything the entry has accepted: the merge tree
// flushes into the authoritative fold, the fold is sealed into its
// generation store, and the engine writes a durable generation (rotating
// its journal).
func (e *entry) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deleted.Load() {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, e.tenant, e.name)
	}
	return e.checkpointLocked()
}

func (e *entry) checkpointLocked() error {
	flushed, err := e.tree.FlushInto(e.folded)
	if err != nil {
		return err
	}
	e.foldedUploads += flushed
	if e.foldSt != nil && e.foldedUploads != e.foldedSealed {
		blob, err := e.folded.MarshalBinary()
		if err != nil {
			return fmt.Errorf("sketchd: marshaling upload fold: %w", err)
		}
		if _, err := e.foldSt.Save([][]byte{blob, binary.LittleEndian.AppendUint64(nil, uint64(e.foldedUploads))}); err != nil {
			return fmt.Errorf("%w: sealing upload fold: %v", ErrNotDurable, err)
		}
		e.foldedSealed = e.foldedUploads
	}
	if e.engSt != nil {
		if err := e.eng.CheckpointNow(); err != nil {
			return err
		}
	}
	return nil
}

// drain checkpoints and closes the entry (registry shutdown). The flag
// flips under delMu like Delete, so in-flight uploads either make the final
// checkpoint or were refused.
func (e *entry) drain() error {
	e.delMu.Lock()
	already := e.deleted.Swap(true)
	e.delMu.Unlock()
	if already {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	err := e.checkpointLocked()
	e.eng.Close()
	if e.engSt != nil {
		e.engSt.Close()
	}
	if e.foldSt != nil {
		e.foldSt.Close()
	}
	return err
}

// Merged materializes the sketch of everything ingested so far: the
// engine's one replica is snapshotted (a quiesce barrier, ingestion
// continues afterwards), loaded and folded together with the authoritative
// upload fold. The result is a detached sketch the caller owns.
func (e *entry) Merged() (streamsample.Sketch, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deleted.Load() {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, e.tenant, e.name)
	}
	blobs, err := e.eng.Snapshot(marshalSketch)
	if err != nil {
		return nil, err
	}
	merged, err := streamsample.Load(blobs[0])
	if err != nil {
		return nil, err
	}
	flushed, err := e.tree.FlushInto(e.folded)
	if err != nil {
		return nil, err
	}
	e.foldedUploads += flushed
	if err := merged.Merge(e.folded); err != nil {
		return nil, err
	}
	e.queries.Add(1)
	return merged, nil
}

// SketchInfo is the public description of one registered sketch.
type SketchInfo struct {
	Tenant    string `json:"tenant"`
	Name      string `json:"name"`
	Spec      Spec   `json:"spec"`
	SpecBytes int    `json:"spec_bytes"`
}

func (e *entry) info() SketchInfo {
	return SketchInfo{Tenant: e.tenant, Name: e.name, Spec: e.spec, SpecBytes: len(e.specBytes)}
}

// SketchStats is the per-sketch /statsz block: the engine's operational
// counters (routed/panics/recoveries/checkpoints/generation),
// the merge tree's fold counters, and the durable-upload frontier.
type SketchStats struct {
	Tenant        string         `json:"tenant"`
	Name          string         `json:"name"`
	Kind          string         `json:"kind"`
	N             int            `json:"n"`
	Engine        engine.Stats   `json:"engine"`
	MergeTree     MergeTreeStats `json:"merge_tree"`
	RawUpdates    int64          `json:"raw_updates"`
	Queries       int64          `json:"queries"`
	SealedUploads int64          `json:"sealed_uploads"`
	FoldedUploads int64          `json:"folded_uploads"`
	Durability    string         `json:"durability_error,omitempty"`
}

func (e *entry) stats() SketchStats {
	st := SketchStats{
		Tenant:     e.tenant,
		Name:       e.name,
		Kind:       e.spec.Kind,
		N:          e.spec.N,
		MergeTree:  e.tree.Stats(),
		RawUpdates: e.rawUpdates.Load(),
		Queries:    e.queries.Load(),
	}
	e.mu.Lock()
	if !e.deleted.Load() {
		st.Engine = e.eng.Stats()
		if derr := e.eng.DurabilityErr(); derr != nil {
			st.Durability = derr.Error()
		}
	}
	st.SealedUploads = e.foldedSealed
	st.FoldedUploads = e.foldedUploads
	e.mu.Unlock()
	return st
}

// RegistryStats is the registry-level /statsz block.
type RegistryStats struct {
	Sketches      int   `json:"sketches"`
	Created       int64 `json:"created"`
	Deleted       int64 `json:"deleted"`
	Recovered     int64 `json:"recovered"`
	Quarantined   int64 `json:"quarantined"`
	RawUpdates    int64 `json:"raw_updates"`
	SketchUploads int64 `json:"sketch_uploads"`
	Queries       int64 `json:"queries"`
}

// Statsz snapshots the whole observability surface.
func (r *Registry) Statsz() (RegistryStats, []SketchStats) {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	n := len(r.entries)
	r.mu.RUnlock()
	per := make([]SketchStats, 0, len(entries))
	for _, e := range entries {
		per = append(per, e.stats())
	}
	sort.Slice(per, func(i, j int) bool {
		if per[i].Tenant != per[j].Tenant {
			return per[i].Tenant < per[j].Tenant
		}
		return per[i].Name < per[j].Name
	})
	return RegistryStats{
		Sketches:      n,
		Created:       r.created.Load(),
		Deleted:       r.deleted.Load(),
		Recovered:     r.recovered.Load(),
		Quarantined:   r.quarantined.Load(),
		RawUpdates:    r.rawUpdates.Load(),
		SketchUploads: r.sketchUploads.Load(),
		Queries:       r.queries.Load(),
	}, per
}
