module phylomem/bench

go 1.22

require phylomem v0.0.0

replace phylomem => ../
