package trace

import "testing"

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		DatasetStream: "dataset-stream",
		ModelSeq:      "model-seq",
		ModelRandom:   "model-random",
		Kind(99):      "unknown",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestAccessStatsRecord(t *testing.T) {
	var a AccessStats
	a.Record(DatasetStream, false, 4, false)
	a.Record(ModelSeq, false, 40, true)
	a.Record(ModelSeq, true, 1, false)
	a.Record(ModelRandom, false, 200, false)
	if a.DatasetStream.Accesses != 1 || a.DatasetStream.LatencyCycles != 4 {
		t.Errorf("dataset = %+v", a.DatasetStream)
	}
	if a.ModelSeq.Accesses != 2 || a.ModelSeq.Writes != 1 || a.ModelSeq.Coherent != 1 || a.ModelSeq.LatencyCycles != 41 {
		t.Errorf("model-seq = %+v", a.ModelSeq)
	}
	tot := a.Total()
	if tot.Accesses != 4 || tot.LatencyCycles != 245 || tot.Coherent != 1 {
		t.Errorf("total = %+v", tot)
	}
	var b AccessStats
	b.Record(ModelRandom, true, 10, true)
	a.Merge(b)
	if a.ModelRandom.Accesses != 2 || a.ModelRandom.Writes != 1 {
		t.Errorf("merged model-random = %+v", a.ModelRandom)
	}
	a.Reset()
	if a.Total().Accesses != 0 {
		t.Errorf("reset left %+v", a)
	}
}

type recordCount struct{ n int }

func (r *recordCount) Record(int, Kind, bool, int, bool) { r.n++ }

func TestCollectorForwards(t *testing.T) {
	next := &recordCount{}
	c := &Collector{Next: next}
	c.Record(0, DatasetStream, false, 4, false)
	c.Record(1, ModelRandom, true, 30, true)
	if c.Stats.Total().Accesses != 2 {
		t.Errorf("collector stats = %+v", c.Stats)
	}
	if next.n != 2 {
		t.Errorf("forwarded %d of 2 accesses", next.n)
	}
	// A nil Next is collect-only.
	(&Collector{}).Record(0, ModelSeq, false, 1, false)
}
