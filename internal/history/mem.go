package history

import (
	"fmt"
	"os"
	"sync"
)

// MemBackend keeps encoded records in process memory — the backend the
// evaluation harness runs on (every experiment's records flow through a
// store without touching disk), and the model for future remote
// backends: nothing in the Store façade assumes files.
type MemBackend struct {
	mu   sync.RWMutex
	data map[RecordKey][]byte
}

// NewMemBackend creates an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{data: make(map[RecordKey][]byte)}
}

// Put implements Backend.
func (b *MemBackend) Put(key RecordKey, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	b.mu.Lock()
	b.data[key] = cp
	b.mu.Unlock()
	return nil
}

// Get implements Backend.
func (b *MemBackend) Get(key RecordKey) ([]byte, error) {
	b.mu.RLock()
	data, ok := b.data[key]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("history: load %s: %w", key, os.ErrNotExist)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Delete implements Backend.
func (b *MemBackend) Delete(key RecordKey) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.data[key]; !ok {
		return fmt.Errorf("history: delete %s: %w", key, os.ErrNotExist)
	}
	delete(b.data, key)
	return nil
}

// Scan implements Backend, in deterministic key order.
func (b *MemBackend) Scan() ([]ScanEntry, []ScanIssue, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	keys := make([]RecordKey, 0, len(b.data))
	for k := range b.data {
		keys = append(keys, k)
	}
	sortKeys(keys)
	entries := make([]ScanEntry, 0, len(keys))
	for _, k := range keys {
		data := b.data[k]
		cp := make([]byte, len(data))
		copy(cp, data)
		entries = append(entries, ScanEntry{Name: k.String(), Data: cp})
	}
	return entries, nil, nil
}
