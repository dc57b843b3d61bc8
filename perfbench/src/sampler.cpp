#include "sampler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "report.h"

namespace perfbench {
namespace {

constexpr int kDepth = 32;

// Written by the signal handler, read after stop(): plain storage sized
// before the handler is installed, claimed slot by slot with one atomic.
struct Ring {
  std::vector<void*> frames;     // capacity * kDepth
  std::vector<std::uint8_t> depth;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> dropped{0};
};
Ring* g_ring = nullptr;

void on_sigprof(int /*sig*/) {
  Ring* ring = g_ring;
  if (ring == nullptr) return;
  const int saved_errno = errno;
  const std::size_t slot = ring->next.fetch_add(1, std::memory_order_relaxed);
  if (slot >= ring->depth.size()) {
    ring->dropped.fetch_add(1, std::memory_order_relaxed);
  } else {
    const int n = backtrace(&ring->frames[slot * kDepth], kDepth);
    ring->depth[slot] = static_cast<std::uint8_t>(n < 0 ? 0 : n);
  }
  errno = saved_errno;
}

struct FuncSymbol {
  std::uintptr_t start = 0;
  std::uintptr_t size = 0;
  std::string name;
};

// Function symbols of the running executable (static symbol table when
// present, else the dynamic one), relocated by the load bias, sorted.
std::vector<FuncSymbol> executable_symbols() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  const std::string image((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::vector<FuncSymbol> out;
  if (image.size() < sizeof(Elf64_Ehdr) ||
      std::memcmp(image.data(), ELFMAG, SELFMAG) != 0) {
    return out;
  }
  Elf64_Ehdr eh;
  std::memcpy(&eh, image.data(), sizeof eh);
  if (eh.e_shoff == 0 || eh.e_shentsize != sizeof(Elf64_Shdr) ||
      eh.e_shoff + eh.e_shnum * sizeof(Elf64_Shdr) > image.size()) {
    return out;
  }
  std::vector<Elf64_Shdr> sections(eh.e_shnum);
  std::memcpy(sections.data(), image.data() + eh.e_shoff,
              eh.e_shnum * sizeof(Elf64_Shdr));
  std::uintptr_t bias = 0;
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* data) {
        *static_cast<std::uintptr_t*>(data) = info->dlpi_addr;
        return 1;  // the first object is the executable
      },
      &bias);
  for (const std::uint32_t wanted : {SHT_SYMTAB, SHT_DYNSYM}) {
    for (const auto& sh : sections) {
      if (sh.sh_type != wanted || sh.sh_link >= sections.size()) continue;
      const auto& strtab = sections[sh.sh_link];
      if (sh.sh_offset + sh.sh_size > image.size() ||
          strtab.sh_offset + strtab.sh_size > image.size()) {
        continue;
      }
      const std::size_t count = sh.sh_size / sizeof(Elf64_Sym);
      for (std::size_t i = 0; i < count; ++i) {
        Elf64_Sym sym;
        std::memcpy(&sym, image.data() + sh.sh_offset + i * sizeof sym,
                    sizeof sym);
        if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_value == 0 ||
            sym.st_name >= strtab.sh_size) {
          continue;
        }
        const char* name = image.data() + strtab.sh_offset + sym.st_name;
        out.push_back({bias + sym.st_value, sym.st_size, name});
      }
    }
    if (!out.empty()) break;
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  return out;
}

std::string demangle(const char* name) {
  int status = 0;
  std::unique_ptr<char, void (*)(void*)> d(
      abi::__cxa_demangle(name, nullptr, nullptr, &status), std::free);
  return status == 0 && d ? std::string(d.get()) : std::string(name);
}

}  // namespace

Sampler::Sampler(std::size_t capacity) {
  if (g_ring != nullptr) throw std::logic_error("Sampler: one at a time");
  g_ring = new Ring;
  g_ring->frames.assign(capacity * kDepth, nullptr);
  g_ring->depth.assign(capacity, 0);
}

Sampler::~Sampler() {
  stop();
  delete g_ring;
  g_ring = nullptr;
}

void Sampler::start(long interval_us) {
  if (running_) return;
  // The first backtrace() loads the unwinder; do it outside the handler.
  void* warm[4];
  (void)backtrace(warm, 4);
  struct sigaction sa {};
  sa.sa_handler = on_sigprof;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &timer, nullptr);
  running_ = true;
}

void Sampler::stop() {
  if (!running_) return;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  struct sigaction sa {};
  sa.sa_handler = SIG_IGN;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  running_ = false;
}

std::size_t Sampler::samples() const {
  return std::min(g_ring->next.load(), g_ring->depth.size());
}

std::size_t Sampler::dropped() const { return g_ring->dropped.load(); }

std::map<std::string, std::size_t> Sampler::module_counts() const {
  std::map<std::string, std::size_t> counts;
  for (const auto& m : modules()) counts[m] = 0;
  const auto symbols = executable_symbols();
  std::unordered_map<void*, std::string> names;
  const auto name_of = [&](void* pc, bool return_address) -> const std::string& {
    auto it = names.find(pc);
    if (it != names.end()) return it->second;
    // A return address points past the call; look up the call itself.
    const auto addr = reinterpret_cast<std::uintptr_t>(pc) -
                      (return_address ? 1 : 0);
    std::string name;
    auto sym = std::upper_bound(
        symbols.begin(), symbols.end(), addr,
        [](std::uintptr_t a, const FuncSymbol& s) { return a < s.start; });
    if (sym != symbols.begin() &&
        addr < std::prev(sym)->start + std::max<std::uintptr_t>(
                                           std::prev(sym)->size, 1)) {
      name = demangle(std::prev(sym)->name.c_str());
    } else {
      Dl_info info{};
      if (dladdr(reinterpret_cast<void*>(addr), &info) != 0 &&
          info.dli_sname != nullptr) {
        name = demangle(info.dli_sname);
      }
    }
    return names.emplace(pc, std::move(name)).first->second;
  };
  const std::size_t n = samples();
  std::vector<std::string> frames;
  for (std::size_t s = 0; s < n; ++s) {
    frames.clear();
    const int depth = g_ring->depth[s];
    // Frames 0-1 are the handler and the signal trampoline; frame 2 is the
    // interrupted instruction itself, the rest are return addresses.
    for (int f = 2; f < depth; ++f) {
      frames.push_back(name_of(g_ring->frames[s * kDepth + f], f > 2));
    }
    ++counts[attribute(frames)];
  }
  return counts;
}

}  // namespace perfbench
