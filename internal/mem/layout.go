package mem

import (
	"fmt"
	"sort"

	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// Field is one named state variable inside a record layout.
type Field struct {
	// Name is the variable name actions refer to.
	Name string
	// Size is the variable's width in bytes.
	Size uint64
}

// Align is the field's natural alignment: its size rounded down to a
// power of two, capped at 8 bytes. NewLayout and the data-packing pass
// both place fields by it.
func (f Field) Align() uint64 {
	switch {
	case f.Size >= 8:
		return 8
	case f.Size >= 4:
		return 4
	case f.Size >= 2:
		return 2
	default:
		return 1
	}
}

// Layout maps a record's named fields to byte offsets. The per-flow and
// sub-flow state of every NF is described by a Layout; the compiler's
// data-packing pass (§VI-B of the paper) rewrites the field order so
// contemporaneously-accessed variables share cache lines, then rebuilds
// the Layout with PackedLayout.
type Layout struct {
	fields  []Field
	offsets map[string]uint64
	size    uint64
}

// NewLayout places fields in declaration order, each at its Align. This
// is the "natural" layout a C struct declaration would produce — the
// unpacked baseline.
func NewLayout(fields ...Field) (*Layout, error) {
	l := &Layout{
		fields:  make([]Field, 0, len(fields)),
		offsets: make(map[string]uint64, len(fields)),
	}
	var off uint64
	for _, f := range fields {
		if f.Name == "" || f.Size == 0 {
			return nil, fmt.Errorf("mem: layout field %q: name and size required", f.Name)
		}
		if _, dup := l.offsets[f.Name]; dup {
			return nil, fmt.Errorf("mem: layout: duplicate field %q", f.Name)
		}
		align := f.Align()
		off = (off + align - 1) &^ (align - 1)
		l.offsets[f.Name] = off
		l.fields = append(l.fields, f)
		off += f.Size
	}
	l.size = off
	return l, nil
}

// PackedLayout builds a layout from explicit (field, offset) placements,
// as produced by the data-packing optimizer. Placements must not overlap.
func PackedLayout(fields []Field, offsets map[string]uint64) (*Layout, error) {
	if len(fields) != len(offsets) {
		return nil, fmt.Errorf("mem: packed layout: %d fields but %d offsets", len(fields), len(offsets))
	}
	type span struct {
		name     string
		from, to uint64
	}
	spans := make([]span, 0, len(fields))
	l := &Layout{
		fields:  make([]Field, len(fields)),
		offsets: make(map[string]uint64, len(fields)),
	}
	copy(l.fields, fields)
	for _, f := range fields {
		off, ok := offsets[f.Name]
		if !ok {
			return nil, fmt.Errorf("mem: packed layout: missing offset for %q", f.Name)
		}
		l.offsets[f.Name] = off
		spans = append(spans, span{f.Name, off, off + f.Size})
		if off+f.Size > l.size {
			l.size = off + f.Size
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].from < spans[j].from })
	for i := 1; i < len(spans); i++ {
		if spans[i].from < spans[i-1].to {
			return nil, fmt.Errorf("mem: packed layout: fields %q and %q overlap",
				spans[i-1].name, spans[i].name)
		}
	}
	return l, nil
}

// Offset returns the byte offset of the named field.
func (l *Layout) Offset(name string) (uint64, error) {
	off, ok := l.offsets[name]
	if !ok {
		return 0, fmt.Errorf("mem: layout: unknown field %q", name)
	}
	return off, nil
}

// Span returns the (offset, size) of the named field.
func (l *Layout) Span(name string) (off, size uint64, err error) {
	off, ok := l.offsets[name]
	if !ok {
		return 0, 0, fmt.Errorf("mem: layout: unknown field %q", name)
	}
	for _, f := range l.fields {
		if f.Name == name {
			return off, f.Size, nil
		}
	}
	return 0, 0, fmt.Errorf("mem: layout: unknown field %q", name)
}

// Size returns the record's total size in bytes.
func (l *Layout) Size() uint64 { return l.size }

// Lines returns the number of cache lines a record occupies.
func (l *Layout) Lines() int {
	return int((l.size + sim.LineBytes - 1) / sim.LineBytes)
}

// Fields returns the fields in declaration order (a copy).
func (l *Layout) Fields() []Field {
	out := make([]Field, len(l.fields))
	copy(out, l.fields)
	return out
}

// LinesTouched returns how many distinct cache lines the named fields
// span, assuming the record starts line-aligned. This is the quantity
// data packing minimizes for each action's access set.
func (l *Layout) LinesTouched(names []string) (int, error) {
	seen := make(map[uint64]struct{}, len(names))
	for _, n := range names {
		off, size, err := l.Span(n)
		if err != nil {
			return 0, err
		}
		for line := off / sim.LineBytes; line <= (off+size-1)/sim.LineBytes; line++ {
			seen[line] = struct{}{}
		}
	}
	return len(seen), nil
}
