module github.com/pimlab/pimtrie/bench

go 1.22

require github.com/pimlab/pimtrie v0.0.0

replace github.com/pimlab/pimtrie => ../
