// The benchmark is a module of its own so that the root module's build and
// test commands do not see it; it reaches the program through the replace.
module repro/bench

go 1.23

require repro v0.0.0

replace repro => ../
