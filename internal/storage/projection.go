package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"matstore/internal/buffer"
	"matstore/internal/encoding"
	"matstore/internal/exec"
)

// A Projection is the C-Store unit of physical design: a subset of a table's
// columns, all sorted in the same order, each stored in its own column file.
// The projection directory holds one .col file per column plus a meta.json
// catalog entry.

// ColumnSpec describes one column of a projection to be written.
type ColumnSpec struct {
	Name     string
	Encoding encoding.Kind
}

// ColumnMeta is the catalog record for one stored column.
type ColumnMeta struct {
	Name      string  `json:"name"`
	Encoding  string  `json:"encoding"`
	File      string  `json:"file"`
	Min       int64   `json:"min"`
	Max       int64   `json:"max"`
	Distinct  int64   `json:"distinct"`
	AvgRunLen float64 `json:"avg_run_len"`
	Blocks    int64   `json:"blocks"`
}

// ProjectionMeta is the catalog record for a projection.
type ProjectionMeta struct {
	Name       string       `json:"name"`
	TupleCount int64        `json:"tuple_count"`
	SortKey    []string     `json:"sort_key"`
	Columns    []ColumnMeta `json:"columns"`
}

const metaFile = "meta.json"

// Projection is an open projection: catalog metadata plus one open Column
// per attribute.
type Projection struct {
	Meta ProjectionMeta
	dir  string
	cols map[string]*Column
}

// OpenProjection opens the projection stored in dir, reading all columns
// through pool.
func OpenProjection(dir string, pool *buffer.Pool) (*Projection, error) {
	raw, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, err
	}
	var meta ProjectionMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	p := &Projection{Meta: meta, dir: dir, cols: make(map[string]*Column, len(meta.Columns))}
	for _, cm := range meta.Columns {
		col, err := Open(filepath.Join(dir, cm.File), pool)
		if err != nil {
			p.Close()
			return nil, err
		}
		if col.TupleCount() != meta.TupleCount {
			p.Close()
			return nil, fmt.Errorf("%s: %w: column %s has %d tuples, projection has %d",
				dir, ErrCorruptFile, cm.Name, col.TupleCount(), meta.TupleCount)
		}
		p.cols[cm.Name] = col
	}
	return p, nil
}

// Close closes every column.
func (p *Projection) Close() error {
	var first error
	for _, c := range p.cols {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Name returns the projection name.
func (p *Projection) Name() string { return p.Meta.Name }

// TupleCount returns the number of logical rows.
func (p *Projection) TupleCount() int64 { return p.Meta.TupleCount }

// ColumnNames returns the attribute names in catalog order.
func (p *Projection) ColumnNames() []string {
	out := make([]string, len(p.Meta.Columns))
	for i, cm := range p.Meta.Columns {
		out[i] = cm.Name
	}
	return out
}

// Column returns the open column for name.
func (p *Projection) Column(name string) (*Column, error) {
	c, ok := p.cols[name]
	if !ok {
		return nil, fmt.Errorf("storage: projection %s has no column %q", p.Meta.Name, name)
	}
	return c, nil
}

// ProjectionWriter writes a projection row by row (or run by run).
type ProjectionWriter struct {
	dir     string
	meta    ProjectionMeta
	writers []*ColumnWriter
	specs   []ColumnSpec
	count   int64
}

// NewProjectionWriter creates dir (if needed) and opens one column writer
// per spec.
func NewProjectionWriter(dir, name string, sortKey []string, specs []ColumnSpec) (*ProjectionWriter, error) {
	if len(specs) == 0 {
		return nil, errors.New("storage: projection needs at least one column")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	pw := &ProjectionWriter{
		dir:   dir,
		meta:  ProjectionMeta{Name: name, SortKey: sortKey},
		specs: specs,
	}
	for _, spec := range specs {
		w, err := NewColumnWriter(filepath.Join(dir, spec.Name+".col"), spec.Encoding)
		if err != nil {
			return nil, err
		}
		pw.writers = append(pw.writers, w)
	}
	return pw, nil
}

// AppendRow appends one logical row; vals must parallel the specs.
func (pw *ProjectionWriter) AppendRow(vals ...int64) error {
	if len(vals) != len(pw.writers) {
		return fmt.Errorf("storage: AppendRow got %d values, want %d", len(vals), len(pw.writers))
	}
	for i, v := range vals {
		if err := pw.writers[i].Append(v); err != nil {
			return err
		}
	}
	pw.count++
	return nil
}

// Close finishes every column and writes meta.json.
func (pw *ProjectionWriter) Close() (ProjectionMeta, error) {
	for i, w := range pw.writers {
		if err := w.Close(); err != nil {
			return ProjectionMeta{}, err
		}
		pw.meta.Columns = append(pw.meta.Columns, columnMeta(pw.specs[i], w))
	}
	pw.meta.TupleCount = pw.count
	if err := writeMetaFile(pw.dir, pw.meta); err != nil {
		return ProjectionMeta{}, err
	}
	return pw.meta, nil
}

// columnMeta assembles the catalog record of one closed column writer.
func columnMeta(spec ColumnSpec, w *ColumnWriter) ColumnMeta {
	return ColumnMeta{
		Name:      spec.Name,
		Encoding:  spec.Encoding.String(),
		File:      spec.Name + ".col",
		Min:       w.minV,
		Max:       w.maxV,
		Distinct:  distinctOf(w),
		AvgRunLen: avgRunOf(w),
		Blocks:    int64(len(w.index)),
	}
}

// writeMetaFile marshals and writes a projection's meta.json.
func writeMetaFile(dir string, meta ProjectionMeta) error {
	raw, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, metaFile), raw, 0o644)
}

func distinctOf(w *ColumnWriter) int64 {
	if w.enc == encoding.BitVector {
		return int64(len(w.bvBits))
	}
	return w.runs
}

func avgRunOf(w *ColumnWriter) float64 {
	if w.runs == 0 {
		return 1
	}
	return float64(w.count) / float64(w.runs)
}

// WriteProjectionParallel writes one projection with its column files
// produced concurrently: emit(i, w) streams column i's full value sequence
// into its writer, and the column tasks fan out over a bounded worker pool
// (workers <= 1 writes serially). Column files are independent — each one's
// bytes depend only on its own value stream — so output is byte-identical
// at every worker count; meta.json is assembled after all columns close.
// This is the projection-writing half of parallel data generation.
func WriteProjectionParallel(dir, name string, sortKey []string, specs []ColumnSpec, workers int, emit func(col int, w *ColumnWriter) error) (ProjectionMeta, error) {
	if len(specs) == 0 {
		return ProjectionMeta{}, errors.New("storage: projection needs at least one column")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ProjectionMeta{}, err
	}
	writers := make([]*ColumnWriter, len(specs))
	err := exec.Run(exec.Resolve(workers), len(specs), func(i int) error {
		w, err := NewColumnWriter(filepath.Join(dir, specs[i].Name+".col"), specs[i].Encoding)
		if err != nil {
			return err
		}
		writers[i] = w
		if err := emit(i, w); err != nil {
			w.Close() // release the file handle; the emit error wins
			return err
		}
		return w.Close()
	})
	if err != nil {
		return ProjectionMeta{}, err
	}
	meta := ProjectionMeta{Name: name, SortKey: sortKey, TupleCount: writers[0].count}
	for i, w := range writers {
		if w.count != meta.TupleCount {
			return ProjectionMeta{}, fmt.Errorf("storage: column %s has %d tuples, %s has %d",
				specs[i].Name, w.count, specs[0].Name, meta.TupleCount)
		}
		meta.Columns = append(meta.Columns, columnMeta(specs[i], w))
	}
	if err := writeMetaFile(dir, meta); err != nil {
		return ProjectionMeta{}, err
	}
	return meta, nil
}

// DB is a directory of projections sharing one buffer pool.
type DB struct {
	dir  string
	pool *buffer.Pool
	proj map[string]*Projection
}

// OpenDB opens every projection directory under dir (any subdirectory
// containing meta.json) with a pool of poolBytes.
func OpenDB(dir string, poolBytes int64) (*DB, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	db := &DB{dir: dir, pool: buffer.New(poolBytes), proj: make(map[string]*Projection)}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, e.Name(), metaFile)); err != nil {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, n := range names {
		p, err := OpenProjection(filepath.Join(dir, n), db.pool)
		if err != nil {
			db.Close()
			return nil, err
		}
		db.proj[p.Meta.Name] = p
	}
	return db, nil
}

// Close closes every projection.
func (db *DB) Close() error {
	var first error
	for _, p := range db.proj {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Pool returns the shared buffer pool.
func (db *DB) Pool() *buffer.Pool { return db.pool }

// Projection returns the named projection.
func (db *DB) Projection(name string) (*Projection, error) {
	p, ok := db.proj[name]
	if !ok {
		return nil, fmt.Errorf("storage: no projection %q in %s", name, db.dir)
	}
	return p, nil
}

// ProjectionNames lists open projections, sorted.
func (db *DB) ProjectionNames() []string {
	out := make([]string, 0, len(db.proj))
	for n := range db.proj {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
