module ldl1/bench

go 1.22

require ldl1 v0.0.0

replace ldl1 => ../
