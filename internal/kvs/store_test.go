package kvs

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
)

func hostStore(t *testing.T, l Layout) *Store {
	t.Helper()
	h, err := hv.New(hv.Config{PhysBytes: 32 * 1024 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	r, err := h.AllocHostRegion(l.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	w, err := shm.NewHostWindow(r, simtime.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Format(w, l, *h.Cost())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var testLayout = Layout{Buckets: 256, KeySize: 32, ValSize: 128}

func TestLayoutValidation(t *testing.T) {
	bad := []Layout{
		{Buckets: 0, KeySize: 8, ValSize: 8},
		{Buckets: 100, KeySize: 8, ValSize: 8}, // not power of two
		{Buckets: 16, KeySize: 0, ValSize: 8},
		{Buckets: 16, KeySize: 300, ValSize: 8},
		{Buckets: 16, KeySize: 8, ValSize: 0},
	}
	for _, l := range bad {
		if err := l.validate(); err == nil {
			t.Errorf("layout %+v accepted", l)
		}
	}
	if testLayout.Bytes() != 64+256*(8+32+128) {
		t.Fatalf("Bytes() = %d", testLayout.Bytes())
	}
}

func TestPutGetDelete(t *testing.T) {
	s := hostStore(t, testLayout)
	key := []byte("answer")
	val := []byte("forty-two")

	buf := make([]byte, testLayout.ValSize)
	found, err := s.Get(key, buf)
	if err != nil || found {
		t.Fatalf("get before put: %v %v", found, err)
	}
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	found, err = s.Get(key, buf)
	if err != nil || !found {
		t.Fatalf("get after put: %v %v", found, err)
	}
	if !bytes.Equal(buf[:len(val)], val) {
		t.Fatalf("value %q", buf[:len(val)])
	}
	if n, _ := s.Count(); n != 1 {
		t.Fatalf("count = %d", n)
	}
	// Update in place.
	if err := s.Put(key, []byte("updated!!")); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Count(); n != 1 {
		t.Fatalf("update changed count: %d", n)
	}
	_, _ = s.Get(key, buf)
	if string(buf[:9]) != "updated!!" {
		t.Fatalf("after update: %q", buf[:9])
	}
	// Delete.
	existed, err := s.Delete(key)
	if err != nil || !existed {
		t.Fatalf("delete: %v %v", existed, err)
	}
	if found, _ := s.Get(key, buf); found {
		t.Fatal("key survives delete")
	}
	if existed, _ := s.Delete(key); existed {
		t.Fatal("double delete reported existing")
	}
	if n, _ := s.Count(); n != 0 {
		t.Fatalf("count after delete = %d", n)
	}
}

func TestTombstoneProbing(t *testing.T) {
	// Keys colliding in a tiny table must stay reachable across deletes
	// (tombstones keep the probe chain intact).
	s := hostStore(t, Layout{Buckets: 8, KeySize: 16, ValSize: 16})
	keys := [][]byte{[]byte("k1"), []byte("k2"), []byte("k3"), []byte("k4")}
	for i, k := range keys {
		if err := s.Put(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Delete(keys[1]); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	for i, k := range keys {
		if i == 1 {
			continue
		}
		found, err := s.Get(k, buf)
		if err != nil || !found || buf[0] != byte(i) {
			t.Fatalf("key %q lost after delete: %v %v %d", k, found, err, buf[0])
		}
	}
	// Tombstone slot is reused.
	if err := s.Put([]byte("k5"), []byte{9}); err != nil {
		t.Fatal(err)
	}
	if found, _ := s.Get([]byte("k5"), buf); !found || buf[0] != 9 {
		t.Fatal("insert into tombstone failed")
	}
}

func TestTableFull(t *testing.T) {
	s := hostStore(t, Layout{Buckets: 4, KeySize: 16, ValSize: 16})
	for i := 0; i < 4; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key%d", i)), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put([]byte("overflow"), []byte{1}); err == nil {
		t.Fatal("put into full table succeeded")
	}
}

func TestKeyValValidation(t *testing.T) {
	s := hostStore(t, testLayout)
	buf := make([]byte, testLayout.ValSize)
	if err := s.Put(nil, []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
	if err := s.Put(make([]byte, 33), []byte("v")); err == nil {
		t.Error("oversized key accepted")
	}
	if err := s.Put([]byte("k"), make([]byte, 129)); err == nil {
		t.Error("oversized value accepted")
	}
	if _, err := s.Get([]byte("k"), buf[:10]); err == nil {
		t.Error("short value buffer accepted")
	}
	if _, err := s.Get(nil, buf); err == nil {
		t.Error("empty key get accepted")
	}
}

func TestOpenSharesState(t *testing.T) {
	h, _ := hv.New(hv.Config{PhysBytes: 32 * 1024 * 1024})
	r, _ := h.AllocHostRegion(testLayout.Bytes())
	w1, _ := shm.NewHostWindow(r, nil)
	s1, err := Format(w1, testLayout, *h.Cost())
	if err != nil {
		t.Fatal(err)
	}
	_ = s1.Put([]byte("shared"), []byte("bytes"))

	w2, _ := shm.NewHostWindow(r, nil)
	s2, err := Open(w2, *h.Cost())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Layout() != testLayout {
		t.Fatalf("layout from header: %+v", s2.Layout())
	}
	buf := make([]byte, testLayout.ValSize)
	found, _ := s2.Get([]byte("shared"), buf)
	if !found || string(buf[:5]) != "bytes" {
		t.Fatalf("second view: %v %q", found, buf[:5])
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	h, _ := hv.New(hv.Config{PhysBytes: 8 * 1024 * 1024})
	r, _ := h.AllocHostRegion(mem.PageSize)
	w, _ := shm.NewHostWindow(r, nil)
	if _, err := Open(w, *h.Cost()); err == nil {
		t.Fatal("opened store in zeroed memory")
	}
}

func TestFormatTooSmall(t *testing.T) {
	h, _ := hv.New(hv.Config{PhysBytes: 8 * 1024 * 1024})
	r, _ := h.AllocHostRegion(mem.PageSize)
	w, _ := shm.NewHostWindow(r, nil)
	if _, err := Format(w, Layout{Buckets: 1024, KeySize: 32, ValSize: 512}, *h.Cost()); err == nil {
		t.Fatal("formatted a table bigger than its window")
	}
}

// Property: the store agrees with a Go map under random operations.
func TestStoreMatchesModel(t *testing.T) {
	s := hostStore(t, Layout{Buckets: 64, KeySize: 16, ValSize: 32})
	model := map[string]string{}
	buf := make([]byte, 32)
	f := func(ops []uint16) bool {
		for _, op := range ops {
			k := fmt.Sprintf("key-%d", op%48) // keep under table capacity
			switch op % 3 {
			case 0: // put
				v := fmt.Sprintf("val-%d", op)
				if err := s.Put([]byte(k), []byte(v)); err != nil {
					return false
				}
				model[k] = v
			case 1: // get
				found, err := s.Get([]byte(k), buf)
				if err != nil {
					return false
				}
				want, ok := model[k]
				if found != ok {
					return false
				}
				if found && string(buf[:len(want)]) != want {
					return false
				}
			case 2: // delete
				existed, err := s.Delete([]byte(k))
				if err != nil {
					return false
				}
				_, ok := model[k]
				if existed != ok {
					return false
				}
				delete(model, k)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGetCostsRealTime(t *testing.T) {
	h, _ := hv.New(hv.Config{PhysBytes: 32 * 1024 * 1024})
	r, _ := h.AllocHostRegion(testLayout.Bytes())
	clk := simtime.NewClock()
	w, _ := shm.NewHostWindow(r, clk)
	s, _ := Format(w, testLayout, *h.Cost())
	_ = s.Put([]byte("k"), []byte("v"))
	before := clk.Now()
	buf := make([]byte, testLayout.ValSize)
	_, _ = s.Get([]byte("k"), buf)
	if d := clk.Elapsed(before); d < h.Cost().DRAMAccess {
		t.Fatalf("GET charged only %v", d)
	}
}
