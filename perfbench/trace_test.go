package main

import (
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "lang", Parent: 0, Start: 10, End: 30},
		{Name: "core", Parent: 0, Start: 40, End: 90},
		{Name: "core.runtime", Parent: 2, Start: 50, End: 60},
		{Name: "certify.runtime", Parent: 3, Start: 52, End: 55},
		{Name: "op", Parent: -1, Start: 200, End: 300},
		{Name: "recover", Parent: 5, Start: 210, End: 250},
		{Name: "recover", Parent: 5, Start: 250, End: 290},
	}
	want := []int64{100 - 20 - 50, 20, 50 - 10, 10 - 3, 3, 100 - 40 - 40, 40, 40}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfAllocsAndLayerTotals(t *testing.T) {
	spans := []span{
		{Name: "op", Op: 0, Parent: -1, Start: 0, End: 10, Alloc: 100},
		{Name: "lang", Op: 0, Parent: 0, Start: 1, End: 4, Alloc: 30},
		{Name: "lang", Op: 0, Parent: 0, Start: 5, End: 6, Alloc: 20},
		{Name: "op", Op: 1, Parent: -1, Start: 20, End: 30, Alloc: 7},
		{Name: "lang", Op: 1, Parent: 3, Start: 21, End: 29, Alloc: 9},
	}
	if got, want := selfAllocs(spans), []uint64{50, 30, 20, 0, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfAllocs = %v, want %v", got, want)
	}
	ns, bytes := layerTotals(spans, map[int]bool{0: true})
	if ns["op"] != 6 || ns["lang"] != 4 || bytes["lang"] != 50 {
		t.Errorf("layerTotals over op 0 = %v, %v", ns, bytes)
	}
}

func TestTracer(t *testing.T) {
	var off *tracer
	if s := off.begin("lang"); s != -1 {
		t.Errorf("nil tracer returned span %d", s)
	}
	off.end(-1)
	off.count("x", 1)

	tr := newTracer()
	tr.op = 3
	root := tr.begin("op")
	child := tr.begin("lang")
	tr.end(child)
	tr.end(root)
	tr.count("ignored", 1)
	tr.counting = true
	tr.count("kept", 2)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != 3 || len(tr.open) != 0 {
		t.Errorf("spans = %+v, open = %v", tr.spans, tr.open)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].Start < tr.spans[0].Start {
		t.Errorf("child span not inside its parent: %+v", tr.spans)
	}
	if len(tr.counts) != 1 || tr.counts["kept"] != 2 {
		t.Errorf("counts = %v", tr.counts)
	}
}
