module xspcl/bench

go 1.22

require xspcl v0.0.0

replace xspcl => ../
