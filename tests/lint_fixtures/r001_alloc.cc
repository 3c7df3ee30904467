// Fixture: every direct-allocation construct inside a no-alloc
// function must trip R001; capacity-reusing scratch operations and
// justified allowances must not.

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

struct Scratch
{
    std::vector<int> hits;
};

struct Stats
{
    void add(const std::string &name, int delta);
    void add(int handle, int delta);
    Scratch &hist(const std::string &name, int scale = 0);
};

// cable-lint: no-alloc
void
searchPipeline(Scratch &s, Stats &stats, int handle)
{
    s.hits.clear();       // allowed: capacity retained
    s.hits.push_back(1);  // allowed: capacity retained
    s.hits.assign(3, 0);  // allowed: capacity retained

    int *p = new int(4);                       // expect: R001
    delete p;
    void *q = std::malloc(16);                 // expect: R001
    std::free(q);
    auto u = std::make_unique<int>(5);         // expect: R001
    std::string label = std::to_string(*u);    // expect: R001
    std::vector<int> local;                    // expect: R001
    local.reserve(8);                          // expect: R001
    s.hits.resize(2);                          // expect: R001
    stats.add("transfers", 1);                 // expect: R001
    stats.hist("refs_per_line", 1);            // expect: R001
    stats.add(handle, 1);      // allowed: registered handle
    // stats.add("in_a_comment", 1) is not code

    // cable-lint: allow(R001) shrink-only resize; capacity kept
    s.hits.resize(1);
    (void)label;
}

// Unmarked functions may allocate freely.
std::vector<int>
unmarked()
{
    std::vector<int> v(64);
    return v;
}
