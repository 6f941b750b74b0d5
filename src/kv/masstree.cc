#include "src/kv/masstree.h"

namespace prestore {

Masstree::Masstree(Machine& machine)
    : machine_(machine),
      root_ptr_(machine.Alloc(64, Region::kTarget, 64)),
      split_lock_(machine.Alloc(64, Region::kTarget, 64)),
      put_func_{machine.registry().Intern("masstree::put", "masstree.cc:210")},
      get_func_{machine.registry().Intern("masstree::get", "masstree.cc:150")},
      traverse_func_{
          machine.registry().Intern("masstree::traverse", "masstree.cc:90")} {
  Core& core = machine.core(0);
  const SimAddr root = NewNode(core, /*leaf=*/true);
  core.StoreU64(root_ptr_, root);
  core.Fence();
}

SimAddr Masstree::NewNode(Core& core, bool leaf) {
  const SimAddr node =
      machine_.Alloc(kNodeBytes, Region::kTarget, kNodeBytes);
  // Fresh machine memory reads as zero (demand-zero regions); only the
  // meta word needs an explicit write.
  SetMeta(core, node, 0, leaf);
  return node;
}

uint64_t Masstree::ReadVersion(Core& core, SimAddr node) {
  // Listing 7: spin while a writer holds the node.
  while (true) {
    const uint64_t v = core.AtomicLoadU64(node + kVersionOff);
    if (!IsLocked(v)) {
      return v;
    }
    core.SpinPause(4);
  }
}

bool Masstree::LockFromVersion(Core& core, SimAddr node, uint64_t version) {
  uint64_t expected = version;
  return core.CasU64(node + kVersionOff, expected, version | 1);
}

void Masstree::LockNode(Core& core, SimAddr node) {
  while (true) {
    const uint64_t v = ReadVersion(core, node);
    if (LockFromVersion(core, node, v)) {
      return;
    }
    core.SpinPause(4);
  }
}

void Masstree::UnlockNode(Core& core, SimAddr node, uint64_t locked_version) {
  // Release: bump the counter and clear the lock bit in one atomic store.
  core.AtomicStoreU64(node + kVersionOff, (locked_version & ~1ULL) + 2);
}

uint32_t Masstree::NodeKeys(Core& core, SimAddr node) {
  return static_cast<uint32_t>(core.LoadU64(node + kMetaOff) & 0xffffffff);
}

bool Masstree::NodeIsLeaf(Core& core, SimAddr node) {
  return (core.LoadU64(node + kMetaOff) >> 32) != 0;
}

void Masstree::SetMeta(Core& core, SimAddr node, uint32_t nkeys, bool leaf) {
  core.StoreU64(node + kMetaOff,
                static_cast<uint64_t>(nkeys) |
                    (static_cast<uint64_t>(leaf ? 1 : 0) << 32));
}

uint32_t Masstree::ChildIndex(Core& core, SimAddr node, uint32_t nkeys,
                              uint64_t key) {
  uint32_t i = 0;
  while (i < nkeys && key >= core.LoadU64(node + kKeysOff + i * 8)) {
    ++i;
  }
  return i;
}

Masstree::LeafRef Masstree::FindLeaf(Core& core, uint64_t key) {
  ScopedFunction f(core, traverse_func_);
  while (true) {
    SimAddr node = core.AtomicLoadU64(root_ptr_);
    uint64_t version = ReadVersion(core, node);
    core.Fence();
    while (true) {
      const uint64_t meta = core.LoadU64(node + kMetaOff);
      const uint32_t nkeys = static_cast<uint32_t>(meta & 0xffffffff);
      const bool leaf = (meta >> 32) != 0;
      if (leaf) {
        core.Fence();
        if (core.AtomicLoadU64(node + kVersionOff) != version) {
          break;  // version changed: restart from the root (Listing 7)
        }
        return LeafRef{node, version};
      }
      const uint32_t idx = ChildIndex(core, node, nkeys, key);
      const SimAddr child = core.LoadU64(node + kSlotsOff + idx * 8);
      core.Fence();
      if (core.AtomicLoadU64(node + kVersionOff) != version) {
        break;
      }
      const uint64_t child_version = ReadVersion(core, child);
      core.Fence();
      node = child;
      version = child_version;
    }
  }
}

SimAddr Masstree::Get(Core& core, uint64_t key) {
  ScopedFunction f(core, get_func_);
  while (true) {
    const LeafRef leaf = FindLeaf(core, key);
    const uint64_t high = core.LoadU64(leaf.node + kHighOff);
    if (high != 0 && key >= high) {
      core.Execute(4);
      continue;  // raced a split: retry the descent
    }
    const uint32_t nkeys = NodeKeys(core, leaf.node);
    SimAddr value = 0;
    for (uint32_t i = 0; i < nkeys; ++i) {
      if (core.LoadU64(leaf.node + kKeysOff + i * 8) == key) {
        value = core.LoadU64(leaf.node + kSlotsOff + i * 8);
        break;
      }
    }
    core.Fence();
    if (core.AtomicLoadU64(leaf.node + kVersionOff) == leaf.version) {
      return value;
    }
  }
}

void Masstree::Put(Core& core, uint64_t key, SimAddr value) {
  ScopedFunction f(core, put_func_);
  while (true) {
    const LeafRef leaf = FindLeaf(core, key);
    // Locking CAS fails if the leaf changed since we observed it.
    if (!LockFromVersion(core, leaf.node, leaf.version)) {
      core.Execute(4);
      continue;
    }
    const uint64_t locked_version = leaf.version | 1;
    // B-link-style bound check: a racing split may have moved our key range
    // to the right sibling between the descent and the lock.
    const uint64_t high = core.LoadU64(leaf.node + kHighOff);
    if (high != 0 && key >= high) {
      UnlockNode(core, leaf.node, locked_version);
      continue;
    }
    const uint32_t nkeys = NodeKeys(core, leaf.node);

    // In-place update.
    for (uint32_t i = 0; i < nkeys; ++i) {
      if (core.LoadU64(leaf.node + kKeysOff + i * 8) == key) {
        core.StoreU64(leaf.node + kSlotsOff + i * 8, value);
        UnlockNode(core, leaf.node, locked_version);
        return;
      }
    }

    if (nkeys < kMaxKeys) {
      uint32_t pos = 0;
      while (pos < nkeys && core.LoadU64(leaf.node + kKeysOff + pos * 8) < key) {
        ++pos;
      }
      for (uint32_t i = nkeys; i > pos; --i) {
        core.StoreU64(leaf.node + kKeysOff + i * 8,
                      core.LoadU64(leaf.node + kKeysOff + (i - 1) * 8));
        core.StoreU64(leaf.node + kSlotsOff + i * 8,
                      core.LoadU64(leaf.node + kSlotsOff + (i - 1) * 8));
      }
      core.StoreU64(leaf.node + kKeysOff + pos * 8, key);
      core.StoreU64(leaf.node + kSlotsOff + pos * 8, value);
      SetMeta(core, leaf.node, nkeys + 1, /*leaf=*/true);
      UnlockNode(core, leaf.node, locked_version);
      return;
    }

    SplitAndInsert(core, leaf.node, locked_version, key, value);
    return;
  }
}

void Masstree::SplitAndInsert(Core& core, SimAddr leaf, uint64_t leaf_version,
                              uint64_t key, SimAddr value) {
  // Structural changes serialize on the split lock (held while the leaf is
  // locked; splitters never wait on other leaves, so this cannot deadlock).
  uint64_t expected = 0;
  while (!core.CasU64(split_lock_, expected, 1)) {
    expected = 0;
    core.SpinPause(10);
  }

  // Record the root-to-leaf path; internal nodes only change under the
  // split lock, so this traversal is stable.
  std::vector<SimAddr> path;
  {
    SimAddr node = core.AtomicLoadU64(root_ptr_);
    while (!NodeIsLeaf(core, node)) {
      path.push_back(node);
      const uint32_t idx = ChildIndex(core, node, NodeKeys(core, node), key);
      node = core.LoadU64(node + kSlotsOff + idx * 8);
    }
    // `node` must be our locked leaf: in-leaf writers cannot move keys to
    // other leaves, and no other splitter is active.
  }

  const SimAddr right = NewNode(core, /*leaf=*/true);
  constexpr uint32_t kLeft = kMaxKeys / 2;              // 7
  constexpr uint32_t kRight = kMaxKeys - kLeft;         // 7
  for (uint32_t i = 0; i < kRight; ++i) {
    core.StoreU64(right + kKeysOff + i * 8,
                  core.LoadU64(leaf + kKeysOff + (kLeft + i) * 8));
    core.StoreU64(right + kSlotsOff + i * 8,
                  core.LoadU64(leaf + kSlotsOff + (kLeft + i) * 8));
  }
  SetMeta(core, right, kRight, /*leaf=*/true);
  core.StoreU64(right + kNextOff, core.LoadU64(leaf + kNextOff));
  core.StoreU64(leaf + kNextOff, right);
  SetMeta(core, leaf, kLeft, /*leaf=*/true);
  const uint64_t separator = core.LoadU64(right + kKeysOff);
  core.StoreU64(right + kHighOff, core.LoadU64(leaf + kHighOff));
  core.StoreU64(leaf + kHighOff, separator);

  // Insert the new key into the correct half (the target is still locked /
  // not yet published, respectively).
  const SimAddr target = key < separator ? leaf : right;
  {
    const uint32_t nkeys = NodeKeys(core, target);
    uint32_t pos = 0;
    while (pos < nkeys && core.LoadU64(target + kKeysOff + pos * 8) < key) {
      ++pos;
    }
    for (uint32_t i = nkeys; i > pos; --i) {
      core.StoreU64(target + kKeysOff + i * 8,
                    core.LoadU64(target + kKeysOff + (i - 1) * 8));
      core.StoreU64(target + kSlotsOff + i * 8,
                    core.LoadU64(target + kSlotsOff + (i - 1) * 8));
    }
    core.StoreU64(target + kKeysOff + pos * 8, key);
    core.StoreU64(target + kSlotsOff + pos * 8, value);
    SetMeta(core, target, nkeys + 1, /*leaf=*/true);
  }

  InsertIntoParent(core, path, leaf, separator, right);

  // Publish: bump the leaf's version (readers that raced the split retry).
  UnlockNode(core, leaf, leaf_version);
  core.AtomicStoreU64(split_lock_, 0);
}

void Masstree::InsertIntoParent(Core& core, const std::vector<SimAddr>& path,
                                SimAddr left, uint64_t separator,
                                SimAddr right) {
  if (path.empty()) {
    // Root split.
    const SimAddr new_root = NewNode(core, /*leaf=*/false);
    core.StoreU64(new_root + kKeysOff, separator);
    core.StoreU64(new_root + kSlotsOff, left);
    core.StoreU64(new_root + kSlotsOff + 8, right);
    SetMeta(core, new_root, 1, /*leaf=*/false);
    core.Fence();
    core.AtomicStoreU64(root_ptr_, new_root);
    return;
  }

  const SimAddr parent = path.back();
  LockNode(core, parent);
  const uint64_t locked_version =
      core.AtomicLoadU64(parent + kVersionOff);
  const uint32_t nkeys = NodeKeys(core, parent);

  if (nkeys < kMaxKeys) {
    uint32_t pos = 0;
    while (pos < nkeys &&
           core.LoadU64(parent + kKeysOff + pos * 8) < separator) {
      ++pos;
    }
    for (uint32_t i = nkeys; i > pos; --i) {
      core.StoreU64(parent + kKeysOff + i * 8,
                    core.LoadU64(parent + kKeysOff + (i - 1) * 8));
    }
    for (uint32_t i = nkeys + 1; i > pos + 1; --i) {
      core.StoreU64(parent + kSlotsOff + i * 8,
                    core.LoadU64(parent + kSlotsOff + (i - 1) * 8));
    }
    core.StoreU64(parent + kKeysOff + pos * 8, separator);
    core.StoreU64(parent + kSlotsOff + (pos + 1) * 8, right);
    SetMeta(core, parent, nkeys + 1, /*leaf=*/false);
    UnlockNode(core, parent, locked_version);
    return;
  }

  // Parent is full: split it, pushing the median up. Build the would-be key
  // and child sequences including the new separator, then redistribute.
  uint64_t keys[kMaxKeys + 1];
  SimAddr children[kMaxKeys + 2];
  uint32_t pos = 0;
  while (pos < nkeys && core.LoadU64(parent + kKeysOff + pos * 8) < separator) {
    ++pos;
  }
  for (uint32_t i = 0; i < pos; ++i) {
    keys[i] = core.LoadU64(parent + kKeysOff + i * 8);
    children[i] = core.LoadU64(parent + kSlotsOff + i * 8);
  }
  keys[pos] = separator;
  children[pos] = core.LoadU64(parent + kSlotsOff + pos * 8);
  children[pos + 1] = right;
  for (uint32_t i = pos; i < nkeys; ++i) {
    keys[i + 1] = core.LoadU64(parent + kKeysOff + i * 8);
    children[i + 2] = core.LoadU64(parent + kSlotsOff + (i + 1) * 8);
  }

  constexpr uint32_t kTotal = kMaxKeys + 1;  // 15 keys, 16 children
  constexpr uint32_t kMid = kTotal / 2;      // keys[7] moves up
  const SimAddr new_right = NewNode(core, /*leaf=*/false);
  for (uint32_t i = 0; i < kMid; ++i) {
    core.StoreU64(parent + kKeysOff + i * 8, keys[i]);
    core.StoreU64(parent + kSlotsOff + i * 8, children[i]);
  }
  core.StoreU64(parent + kSlotsOff + kMid * 8, children[kMid]);
  SetMeta(core, parent, kMid, /*leaf=*/false);

  const uint32_t right_keys = kTotal - kMid - 1;
  for (uint32_t i = 0; i < right_keys; ++i) {
    core.StoreU64(new_right + kKeysOff + i * 8, keys[kMid + 1 + i]);
    core.StoreU64(new_right + kSlotsOff + i * 8, children[kMid + 1 + i]);
  }
  core.StoreU64(new_right + kSlotsOff + right_keys * 8, children[kTotal]);
  SetMeta(core, new_right, right_keys, /*leaf=*/false);

  UnlockNode(core, parent, locked_version);
  std::vector<SimAddr> upper(path.begin(), path.end() - 1);
  InsertIntoParent(core, upper, parent, keys[kMid], new_right);
}

std::vector<std::pair<uint64_t, SimAddr>> Masstree::Scan(Core& core,
                                                         uint64_t start_key,
                                                         size_t limit) {
  ScopedFunction f(core, get_func_);
  std::vector<std::pair<uint64_t, SimAddr>> out;
  if (limit == 0) {
    return out;
  }
  LeafRef leaf = FindLeaf(core, start_key);
  SimAddr node = leaf.node;
  uint64_t version = leaf.version;
  uint64_t next_key = start_key;
  while (node != 0 && out.size() < limit) {
    // Snapshot one leaf under its version (Listing 7 protocol).
    std::vector<std::pair<uint64_t, SimAddr>> snapshot;
    const uint32_t nkeys = NodeKeys(core, node);
    for (uint32_t i = 0; i < nkeys && snapshot.size() < limit - out.size();
         ++i) {
      const uint64_t k = core.LoadU64(node + kKeysOff + i * 8);
      if (k >= next_key) {
        snapshot.emplace_back(k, core.LoadU64(node + kSlotsOff + i * 8));
      }
    }
    const SimAddr next = core.LoadU64(node + kNextOff);
    core.Fence();
    if (core.AtomicLoadU64(node + kVersionOff) != version) {
      // Version changed mid-snapshot: retry this leaf from the root.
      leaf = FindLeaf(core, next_key);
      node = leaf.node;
      version = leaf.version;
      continue;
    }
    for (auto& kv : snapshot) {
      out.push_back(kv);
      next_key = kv.first + 1;
    }
    node = next;
    if (node != 0) {
      version = ReadVersion(core, node);
      core.Fence();
    }
  }
  return out;
}

uint64_t Masstree::CheckedSize(Core& core) {
  // Descend to the leftmost leaf, then walk the chain.
  SimAddr node = core.AtomicLoadU64(root_ptr_);
  while (!NodeIsLeaf(core, node)) {
    node = core.LoadU64(node + kSlotsOff);
  }
  uint64_t count = 0;
  uint64_t prev = 0;
  bool first = true;
  while (node != 0) {
    const uint32_t nkeys = NodeKeys(core, node);
    for (uint32_t i = 0; i < nkeys; ++i) {
      const uint64_t k = core.LoadU64(node + kKeysOff + i * 8);
      if (!first && k <= prev) {
        return ~0ULL;  // ordering violation
      }
      prev = k;
      first = false;
      ++count;
    }
    node = core.LoadU64(node + kNextOff);
  }
  return count;
}

int Masstree::Height(Core& core) {
  int h = 1;
  SimAddr node = core.AtomicLoadU64(root_ptr_);
  while (!NodeIsLeaf(core, node)) {
    node = core.LoadU64(node + kSlotsOff);
    ++h;
  }
  return h;
}

}  // namespace prestore
