// The benchmark is its own module so that `go build ./...` and
// `go test ./...` at the repository root never compile or run it. The
// module path sits under the product's, which is what lets it import the
// product's internal packages.
module appshare/benchmark

go 1.22

require appshare v0.0.0

replace appshare => ../
