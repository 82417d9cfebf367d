package faultinject

import (
	"errors"
	"sync"
	"testing"
)

func TestDisarmedCheckIsNil(t *testing.T) {
	defer Reset()
	if err := Check("nothing.armed"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
}

func TestArmFiresOnNthCall(t *testing.T) {
	defer Reset()
	want := errors.New("boom")
	Arm("p", 2, want)
	for i := 0; i < 2; i++ {
		if err := Check("p"); err != nil {
			t.Fatalf("fired early at call %d: %v", i, err)
		}
	}
	if err := Check("p"); !errors.Is(err, want) {
		t.Fatalf("trigger call returned %v", err)
	}
	// One-shot: the point has disarmed itself.
	if err := Check("p"); err != nil {
		t.Fatalf("fired twice: %v", err)
	}
	if n := armed.Load(); n != 0 {
		t.Fatalf("armed count %d after one-shot fire", n)
	}
}

func TestReset(t *testing.T) {
	defer Reset()
	Arm("a", 0, errors.New("a"))
	Arm("b", 0, errors.New("b"))
	Reset()
	if err := Check("a"); err != nil {
		t.Fatalf("reset point fired: %v", err)
	}
	if err := Check("b"); err != nil {
		t.Fatalf("reset point fired: %v", err)
	}
	if n := armed.Load(); n != 0 {
		t.Fatalf("armed count %d after Reset", n)
	}
}

func TestRearmReplacesTrigger(t *testing.T) {
	defer Reset()
	first := errors.New("first")
	second := errors.New("second")
	Arm("p", 5, first)
	Arm("p", 0, second)
	if err := Check("p"); !errors.Is(err, second) {
		t.Fatalf("re-armed point returned %v", err)
	}
}

func TestConcurrentChecks(t *testing.T) {
	defer Reset()
	want := errors.New("concurrent")
	Arm("p", 50, want)
	var fired sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := Check("p"); err != nil {
					fired.Store(g*1000+i, err)
				}
			}
		}(g)
	}
	wg.Wait()
	n := 0
	fired.Range(func(_, v any) bool {
		n++
		if !errors.Is(v.(error), want) {
			t.Errorf("wrong error fired: %v", v)
		}
		return true
	})
	if n != 1 {
		t.Fatalf("fault fired %d times, want exactly 1", n)
	}
}
