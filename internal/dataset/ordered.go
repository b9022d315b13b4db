package dataset

import "sync"

// ordered is a bounded fan-out that keeps order. One goroutine calls next
// until next reports the end; up to workers goroutines (started as items
// arrive, so a short input starts few) run work on the items; and use gets
// the results on the caller's goroutine, in the order next returned the
// items. At most inflight items are between next and use at any time, so
// memory stays bounded whatever the input's size. use returning false
// stops the pipeline early. ordered returns once every goroutine it
// started has exited, so next is never called after it returns.
func ordered[J, R any](workers, inflight int, next func() (J, bool), work func(J) R, use func(R) bool) {
	workers, inflight = max(1, workers), max(1, inflight)
	type job struct {
		k int
		j J
	}
	type slot struct {
		r   R
		end bool
	}
	// Item k's result goes to slots[k%inflight]. A token is taken before
	// item k is made and given back once use has its result, so items
	// k-inflight and k are never both pending and no send to a slot blocks.
	slots := make([]chan slot, inflight)
	for i := range slots {
		slots[i] = make(chan slot, 1)
	}
	tokens := make(chan struct{}, inflight)
	jobs := make(chan job)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		for jb := range jobs {
			slots[jb.k%inflight] <- slot{r: work(jb.j)}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		for k, started := 0, 0; ; k++ {
			select {
			case tokens <- struct{}{}:
			case <-quit:
				return
			}
			j, ok := next()
			if !ok {
				slots[k%inflight] <- slot{end: true}
				return
			}
			if started < workers {
				started++
				wg.Add(1)
				go worker()
			}
			select {
			case jobs <- job{k, j}:
			case <-quit:
				return
			}
		}
	}()
	for k := 0; ; k++ {
		s := <-slots[k%inflight]
		<-tokens
		if s.end || !use(s.r) {
			break
		}
	}
	close(quit)
	wg.Wait()
}
