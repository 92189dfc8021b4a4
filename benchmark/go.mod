// The benchmark is a module of its own so that it builds from its own
// directory and stays out of the root module's `go build ./... && go test
// ./...`. Its import path sits under broadway/, which is what lets it
// import broadway/internal/...; the replace points at the repository root.
module broadway/benchmark

go 1.24

require broadway v0.0.0

replace broadway => ../
