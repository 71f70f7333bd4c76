// The benchmark is a module of its own so that it builds from its own
// directory and the root module's build, vet and test runs do not see
// it. Its path sits under the root module's path, which is what lets
// it import the root module's internal packages.
module pretium/bench

go 1.22

require pretium v0.0.0

replace pretium => ../
