// A module of its own: the benchmark's contract wants a compiled
// benchmark to carry its own build file inside its own directory. It
// reaches the program's internal packages through the replace below, so
// the root's `go build ./...` and `go test ./...` do not cover it; after
// changing a signature under internal/, run
// `cd bench && go vet ./... && go test -short ./...`.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
