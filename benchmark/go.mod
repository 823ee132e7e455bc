module hotpaths/benchmark

go 1.24

require hotpaths v0.0.0

replace hotpaths => ../
