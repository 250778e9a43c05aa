package operators

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"matstore/internal/datasource"
	"matstore/internal/encoding"
	"matstore/internal/faults"
	"matstore/internal/positions"
	"matstore/internal/storage"
)

// This file is the Grace spill path of the radix join build. When the memory
// governor denies an in-memory reservation, the build runs under a byte
// budget: partitions that fit stay resident (FlatTables, as in the in-memory
// build), partitions over the share stream their (key, position) pairs to
// per-partition temp files as checksummed plain blocks — the same
// internal/encoding format the stored columns use, with no decompression or
// expansion of payload data.
// The probe handles resident partitions inline and spilled partitions
// partition-at-a-time afterwards (see internal/plan), reproducing the exact
// output order of the in-memory path, so spilled results are byte-identical
// at every budget and worker count.
//
// In spill mode ALL right-payload access is deferred to the stored column
// files (forced late materialization): the spill files carry only hash
// entries, never payload, because the payload already lives on disk in
// compressed block form. The same insight drives build-cache demotion: a
// demoted entry persists only the hash entries and rehydrates its payload by
// re-windowing the stored columns.
//
// Every table that comes back from disk — a spilled partition loaded for pass
// B, a demoted build rehydrated — is built by the same newFlatTable the
// in-memory build uses, and like it is read-only and owns the positions array
// its Probe results alias: the caller of LoadSpilledPartition keeps no probe
// result past dropping the table.

// SpillFilePrefix names every spill artifact (partition files and demoted
// builds) so a startup sweep can remove orphans from a crashed process.
const SpillFilePrefix = "spill-"

// SpillDirName is the conventional spill directory under a database dir.
const SpillDirName = ".spill"

// SpillDir returns the conventional spill directory for a database dir.
func SpillDir(dbDir string) string { return filepath.Join(dbDir, SpillDirName) }

// SweepSpillDir removes orphaned spill files left by a previous crash.
// A missing directory is not an error. Returns the number of files removed.
func SweepSpillDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	removed := 0
	for _, e := range entries {
		if e.IsDir() || len(e.Name()) < len(SpillFilePrefix) || e.Name()[:len(SpillFilePrefix)] != SpillFilePrefix {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// SpillConfig parameterizes one spill-mode build.
type SpillConfig struct {
	// BudgetBytes bounds the resident (in-memory) share of the build.
	BudgetBytes int64
	// EstBytes is the predicted full in-memory size (model.EstimateJoinMemory);
	// the resident partition count is BudgetBytes / (EstBytes / partitions).
	EstBytes int64
	// Dir holds the per-partition temp files (created if missing).
	Dir string
}

// spillPartition is one cold partition's temp file. Writers from different
// morsels interleave frames under mu; the probe-side load sorts every key's
// positions, so the on-disk frame order never affects results.
type spillPartition struct {
	mu         sync.Mutex
	f          *os.File
	path       string
	entries    int64
	bytes      int64
	writeNanos int64
}

// spillState marks a table as spill-built: partitions >= resident live on
// disk, and all payload access is deferred to the stored columns.
type spillState struct {
	resident int
	parts    []*spillPartition // nil below resident
	release  sync.Once
}

// DeferredPayload reports whether this table was built in spill mode, where
// every right-payload value is fetched post-merge from the stored columns.
// Such a table's partitions (and temp files) live only as long as the run
// that built it: it must never be reused or cached across runs.
func (rt *PartitionedTable) DeferredPayload() bool { return rt.spill != nil }

// SpilledPartition reports whether partition pt lives on disk.
func (rt *PartitionedTable) SpilledPartition(pt int) bool {
	return rt.spill != nil && pt >= rt.spill.resident
}

// ResidentPartitions returns the number of in-memory partitions (equals
// Partitions for non-spill builds).
func (rt *PartitionedTable) ResidentPartitions() int {
	if rt.spill == nil {
		return rt.Partitions
	}
	return rt.spill.resident
}

// KeyPartition returns the radix partition a key routes to.
func (rt *PartitionedTable) KeyPartition(key int64) int { return int(HashKey(key) & rt.mask) }

// ReleaseSpill closes and removes the table's spill files. Idempotent; a
// no-op for in-memory builds. The plan executor calls it when the run
// finishes (success, error, or cancellation).
func (rt *PartitionedTable) ReleaseSpill() {
	if rt == nil || rt.spill == nil {
		return
	}
	rt.spill.release.Do(func() {
		for _, sp := range rt.spill.parts {
			if sp == nil {
				continue
			}
			if sp.f != nil {
				sp.f.Close()
			}
			os.Remove(sp.path)
		}
	})
}

// spillAwareWrite writes buf honoring the site's armed failpoint: a short
// write flushes a truncated prefix (so the file really is torn on disk)
// before returning the injected error.
func spillAwareWrite(f *os.File, site string, buf []byte) error {
	if n, err := faults.WriteOutcome(site, len(buf)); err != nil {
		if n > 0 {
			f.Write(buf[:n])
		}
		return fmt.Errorf("%s: %w", site, err)
	}
	_, err := f.Write(buf)
	return err
}

// writeFrame appends one (keys, positions) frame — two plain blocks — to the
// partition file. len(keys) == len(poss) <= encoding.PlainBlockCap.
func (sp *spillPartition) writeFrame(site string, keys, poss []int64, blockBuf []byte) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	start := time.Now()
	encoding.EncodePlainBlock(blockBuf, sp.entries, keys)
	if err := spillAwareWrite(sp.f, site, blockBuf); err != nil {
		return err
	}
	encoding.EncodePlainBlock(blockBuf, sp.entries, poss)
	if err := spillAwareWrite(sp.f, site, blockBuf); err != nil {
		return err
	}
	sp.entries += int64(len(keys))
	sp.bytes += 2 * encoding.BlockSize
	sp.writeNanos += time.Since(start).Nanoseconds()
	return nil
}

// readEntryFrames reads every (key, position) frame from r, verifying block
// checksums. site names the fault-injection point for read errors; want is
// the entry count the writer recorded, which sizes the result once (a file
// holding a different number is the caller's error to report).
func readEntryFrames(r io.Reader, site string, want int64) ([]buildEntry, error) {
	buf := make([]byte, encoding.BlockSize)
	out := make([]buildEntry, 0, want)
	for {
		if err := faults.Check(site); err != nil {
			return nil, fmt.Errorf("%s: %w", site, err)
		}
		if _, err := io.ReadFull(r, buf); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("spill frame: %w", err)
		}
		kb, err := encoding.DecodePlainBlock(buf)
		if err != nil {
			return nil, fmt.Errorf("spill key block: %w", err)
		}
		keys := kb.Vals // decoded into a fresh slice: the next read cannot reach it
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("spill frame truncated: %w", err)
		}
		pb, err := encoding.DecodePlainBlock(buf)
		if err != nil {
			return nil, fmt.Errorf("spill position block: %w", err)
		}
		if len(pb.Vals) != len(keys) {
			return nil, fmt.Errorf("spill frame: %d keys vs %d positions", len(keys), len(pb.Vals))
		}
		for i, k := range keys {
			out = append(out, buildEntry{key: k, pos: pb.Vals[i]})
		}
	}
}

// LoadSpilledPartition reads one spilled partition back and builds its hash
// table. Every key's positions are then sorted, so they come out ascending
// regardless of how morsel flushes interleaved in the file — the same order
// the in-memory build produces. The caller probes the table and drops it
// before loading the next partition (partition-at-a-time).
func (rt *PartitionedTable) LoadSpilledPartition(pt int) (*FlatTable, error) {
	sp := rt.spill.parts[pt]
	if sp == nil {
		return nil, fmt.Errorf("partition %d is resident", pt)
	}
	f, err := os.Open(sp.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	entries, err := readEntryFrames(f, "spill.read", sp.entries)
	if err != nil {
		return nil, err
	}
	if int64(len(entries)) != sp.entries {
		return nil, fmt.Errorf("spill partition %d: %d entries on disk, wrote %d", pt, len(entries), sp.entries)
	}
	tbl, err := newFlatTable(entries)
	if err != nil {
		return nil, err
	}
	tbl.sortGroups()
	return &tbl, nil
}

// residentShare derives how many partitions fit the budget, assuming the
// estimate spreads evenly (radix hashing does).
func residentShare(partitions int, cfg SpillConfig) int {
	if cfg.BudgetBytes <= 0 {
		return 0
	}
	perPart := cfg.EstBytes / int64(partitions)
	if perPart < 1 {
		perPart = 1
	}
	resident := int(cfg.BudgetBytes / perPart)
	if resident > partitions {
		resident = partitions
	}
	if resident < 0 {
		resident = 0
	}
	return resident
}

// BuildPartitionedSpill is the budget-bounded BuildPartitioned: it scans only
// the key column (payload is deferred to the stored columns), keeps the first
// residentShare partitions as in-memory hash tables, and streams the rest to
// per-partition temp files under cfg.Dir.
func BuildPartitionedSpill(ctx context.Context, key *storage.Column, payloadCols []*storage.Column, payload []string, strat RightStrategy, chunkSize int64, workers, partitions int, cfg SpillConfig) (*PartitionedTable, error) {
	return buildPartitioned(ctx, key, payloadCols, payload, strat, chunkSize, workers, partitions, &cfg)
}

// openSpill marks rt spill-built and creates the temp files of the
// partitions past resident, removing what it created if one fails.
func (rt *PartitionedTable) openSpill(cfg SpillConfig, resident int) error {
	rt.spill = &spillState{resident: resident, parts: make([]*spillPartition, rt.Partitions)}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return err
	}
	for i := resident; i < rt.Partitions; i++ {
		f, err := createSpillFile(cfg.Dir)
		if err != nil {
			rt.ReleaseSpill()
			return err
		}
		rt.spill.parts[i] = &spillPartition{f: f, path: f.Name()}
	}
	return nil
}

func createSpillFile(dir string) (*os.File, error) {
	if err := faults.Check("spill.create"); err != nil {
		return nil, fmt.Errorf("spill.create: %w", err)
	}
	return os.CreateTemp(dir, SpillFilePrefix+"part-*.tmp")
}

// coldWriter is one morsel's frame buffers for the spilled partitions: the
// scan adds (key, position) pairs, and a partition's pairs are written out as
// a frame once they fill a plain block.
type coldWriter struct {
	st         *spillState
	keys, poss [][]int64 // by partition; nil below st.resident
	blockBuf   []byte
}

// newColdWriter sizes each cold partition's buffers to a morsel's staging
// share, a plain block's worth at most.
func (st *spillState) newColdWriter(share int) *coldWriter {
	w := &coldWriter{
		st: st, blockBuf: make([]byte, encoding.BlockSize),
		keys: make([][]int64, len(st.parts)), poss: make([][]int64, len(st.parts)),
	}
	for pt := st.resident; pt < len(st.parts); pt++ {
		w.keys[pt] = make([]int64, 0, min(share, encoding.PlainBlockCap))
		w.poss[pt] = make([]int64, 0, min(share, encoding.PlainBlockCap))
	}
	return w
}

func (w *coldWriter) add(pt int, key, pos int64) error {
	w.keys[pt] = append(w.keys[pt], key)
	w.poss[pt] = append(w.poss[pt], pos)
	if len(w.keys[pt]) == encoding.PlainBlockCap {
		return w.flush(pt)
	}
	return nil
}

func (w *coldWriter) flush(pt int) error {
	if len(w.keys[pt]) == 0 {
		return nil
	}
	if err := w.st.parts[pt].writeFrame("spill.write", w.keys[pt], w.poss[pt], w.blockBuf); err != nil {
		return err
	}
	w.keys[pt], w.poss[pt] = w.keys[pt][:0], w.poss[pt][:0]
	return nil
}

// flushAll writes out every partition's partial frame at the end of a
// morsel. A nil writer (no cold partition) has nothing to flush.
func (w *coldWriter) flushAll() error {
	if w == nil {
		return nil
	}
	for pt := w.st.resident; pt < len(w.keys); pt++ {
		if err := w.flush(pt); err != nil {
			return err
		}
	}
	return nil
}

// demotedMagic guards demoted-build files against stray spill partitions.
const demotedMagic = 0x53504c31 // "SPL1"

// WriteDemoted persists an in-memory build's hash entries to a spill-format
// file so the build cache can keep warm keys probeable past its byte budget.
// Payload is NOT written: it rehydrates from the stored columns, which
// already hold it on disk in compressed block form. Returns the file path
// and its size.
func WriteDemoted(rt *PartitionedTable, dir string) (string, int64, error) {
	if rt.spill != nil {
		return "", 0, fmt.Errorf("refusing to demote a spill-built table")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	f, err := os.CreateTemp(dir, SpillFilePrefix+"demote-*.tmp")
	if err != nil {
		return "", 0, err
	}
	path := f.Name()
	fail := func(err error) (string, int64, error) {
		f.Close()
		os.Remove(path)
		return "", 0, err
	}
	var entryCount int64
	for i := range rt.tables {
		entryCount += int64(rt.tables[i].Len())
	}
	blockBuf := make([]byte, encoding.BlockSize)
	meta := []int64{demotedMagic, int64(rt.strategy), rt.Tuples, int64(rt.Partitions),
		rt.chunkSize, int64(len(rt.payload)), entryCount,
		rt.BuildTuples, int64(rt.BuildWorkers), int64(rt.BuildMorsels)}
	encoding.EncodePlainBlock(blockBuf, 0, meta)
	if err := spillAwareWrite(f, "cache.demote", blockBuf); err != nil {
		return fail(err)
	}
	keys := make([]int64, 0, encoding.PlainBlockCap)
	poss := make([]int64, 0, encoding.PlainBlockCap)
	var written int64 = encoding.BlockSize
	flush := func() error {
		if len(keys) == 0 {
			return nil
		}
		encoding.EncodePlainBlock(blockBuf, 0, keys)
		if err := spillAwareWrite(f, "cache.demote", blockBuf); err != nil {
			return err
		}
		encoding.EncodePlainBlock(blockBuf, 0, poss)
		if err := spillAwareWrite(f, "cache.demote", blockBuf); err != nil {
			return err
		}
		written += 2 * encoding.BlockSize
		keys, poss = keys[:0], poss[:0]
		return nil
	}
	// Partition by partition, slot by slot: a deterministic file order (unlike
	// map iteration) that keeps each partition's entries contiguous and each
	// key's positions ascending, so the load rebuilds tables that probe
	// identically.
	for i := range rt.tables {
		t := &rt.tables[i]
		for _, slot := range t.slots {
			for _, pos := range t.pos[slot.off : slot.off+slot.cnt] {
				keys = append(keys, slot.key)
				poss = append(poss, pos)
				if len(keys) == encoding.PlainBlockCap {
					if err := flush(); err != nil {
						return fail(err)
					}
				}
			}
		}
	}
	if err := flush(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return "", 0, err
	}
	return path, written, nil
}

// LoadDemoted rehydrates a demoted build into a normal in-memory
// PartitionedTable: hash entries from the file, payload re-windowed (or
// re-decompressed) from the stored columns per the original strategy.
func LoadDemoted(path string, payloadCols []*storage.Column, payload []string) (*PartitionedTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, encoding.BlockSize)
	if err := faults.Check("cache.rehydrate"); err != nil {
		return nil, fmt.Errorf("cache.rehydrate: %w", err)
	}
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("demoted meta: %w", err)
	}
	mb, err := encoding.DecodePlainBlock(buf)
	if err != nil {
		return nil, fmt.Errorf("demoted meta: %w", err)
	}
	if len(mb.Vals) != 10 || mb.Vals[0] != demotedMagic {
		return nil, fmt.Errorf("demoted meta: bad header")
	}
	strat := RightStrategy(mb.Vals[1])
	tuples, p := mb.Vals[2], int(mb.Vals[3])
	chunkSize, npayload, entryCount := mb.Vals[4], int(mb.Vals[5]), mb.Vals[6]
	if npayload != len(payloadCols) {
		return nil, fmt.Errorf("demoted build: %d payload cols on disk, %d supplied", npayload, len(payloadCols))
	}
	if p < 1 || p&(p-1) != 0 || entryCount < 0 || entryCount > tuples {
		return nil, fmt.Errorf("demoted meta: %d partitions, %d entries over %d tuples", p, entryCount, tuples)
	}
	entries, err := readEntryFrames(f, "cache.rehydrate", entryCount)
	if err != nil {
		return nil, err
	}
	if int64(len(entries)) != entryCount {
		return nil, fmt.Errorf("demoted build: %d entries, want %d", len(entries), entryCount)
	}
	rt := &PartitionedTable{
		strategy:     strat,
		payload:      payload,
		mask:         uint64(p - 1),
		tables:       make([]FlatTable, p),
		chunkSize:    chunkSize,
		cols:         payloadCols,
		Tuples:       tuples,
		Partitions:   p,
		BuildWorkers: int(mb.Vals[8]),
		BuildMorsels: int(mb.Vals[9]),
	}
	// The file holds each partition's entries as one contiguous run, every
	// key's positions ascending inside it: one table per run.
	for start := 0; start < len(entries); {
		pt := HashKey(entries[start].key) & rt.mask
		end := start + 1
		for end < len(entries) && HashKey(entries[end].key)&rt.mask == pt {
			end++
		}
		if rt.tables[pt].Len() != 0 {
			return nil, fmt.Errorf("demoted build: partition %d's entries are not contiguous", pt)
		}
		if rt.tables[pt], err = newFlatTable(entries[start:end]); err != nil {
			return nil, err
		}
		start = end
	}
	rt.allocPayload()
	ch := datasource.NewChunker(positions.Range{Start: 0, End: tuples}, chunkSize)
	for ci := 0; ci < ch.NumChunks(); ci++ {
		if err := rt.loadPayloadChunk(ch.Chunk(ci)); err != nil {
			return nil, err
		}
	}
	rt.SizeBytes = rt.memBytes()
	return rt, nil
}
