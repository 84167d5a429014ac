// topology.h — ICS network model: nodes, security zones, links, channels.
//
// Models the classic Purdue-style segmentation of a monitoring & control
// network: corporate IT, DMZ, control (SCADA servers, engineering
// workstations, HMIs) and field (PLCs, RTUs). Malware propagation (the
// paper's "network propagation" stage) moves across links subject to the
// firewall policy (firewall.h) and per-channel constraints; USB is the
// air-gap-crossing channel Stuxnet is famous for and is modelled as a
// linkless channel between nodes flagged with removable-media exposure.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace divsec::net {

using NodeId = std::size_t;

/// Security zone (Purdue-ish level).
enum class Zone : std::uint8_t { kCorporate, kDmz, kControl, kField };

inline constexpr std::size_t kZoneCount = 4;
static_assert(static_cast<std::size_t>(Zone::kField) + 1 == kZoneCount,
              "update kZoneCount when adding Zone enumerators");

/// Functional role of a node; used by attack targeting and the SCADA
/// binding (a PLC node hosts PLC firmware, an HMI node hosts HMI software).
enum class Role : std::uint8_t {
  kWorkstation,      // office PC
  kServer,           // generic IT server
  kScadaServer,      // SCADA master / data acquisition
  kEngineering,      // engineering workstation (PLC programming)
  kHmi,              // operator console
  kHistorian,        // time-series archive
  kPlc,              // programmable logic controller
  kSensorGateway,    // field I/O concentrator
};

/// Propagation / communication channel.
enum class Channel : std::uint8_t {
  kUsb,           // removable media (human-carried; crosses air gaps)
  kSmbShare,      // network shares
  kPrintSpooler,  // the MS10-061-style spooler path
  kProjectFile,   // infected PLC project files (engineering tools)
  kModbus,        // control protocol traffic
  kHttp,          // generic IT traffic / C2
};

inline constexpr std::size_t kChannelCount = 6;
static_assert(static_cast<std::size_t>(Channel::kHttp) + 1 == kChannelCount,
              "update kChannelCount when adding Channel enumerators");

struct Node {
  std::string name;
  Zone zone = Zone::kCorporate;
  Role role = Role::kWorkstation;
  /// Whether operators plug removable media into this node.
  bool usb_exposure = false;
};

struct Link {
  NodeId a = 0;
  NodeId b = 0;
};

/// Undirected multigraph of nodes and links. Value type; cheap to copy:
/// copies share one storage, and add_node / connect / reserve
/// clone it first when it is shared (copy-on-write), so mutating a copy
/// never shows through another. A default-constructed or moved-from
/// topology reads as empty. Sharing is what lets a sweep's arms, which
/// differ only in their variant assignment, hold one structure: copies
/// of one value report the same identity(), and the measurement engine
/// shares one reachability index per identity.
class Topology {
 public:
  /// Append a node; its id is its index. Throws std::invalid_argument on
  /// an empty or duplicate name, and std::length_error once ids would
  /// not fit the name table's 32 bits.
  NodeId add_node(std::string name, Zone zone, Role role, bool usb_exposure = false);

  /// Pre-size internal storage for `nodes` nodes (fleet generation),
  /// the name table included.
  void reserve(std::size_t nodes);

  /// Undirected link; both endpoints must exist; self-links are rejected.
  void connect(NodeId a, NodeId b);

  [[nodiscard]] std::size_t node_count() const noexcept { return data().nodes.size(); }
  [[nodiscard]] std::size_t link_count() const noexcept { return data().links.size(); }
  [[nodiscard]] const Node& node(NodeId n) const { return data().nodes.at(n); }
  [[nodiscard]] const std::vector<Link>& links() const noexcept { return data().links; }

  [[nodiscard]] const std::vector<NodeId>& neighbors(NodeId n) const {
    return data().adjacency.at(n);
  }

  [[nodiscard]] bool linked(NodeId a, NodeId b) const;

  /// Find a node by name in O(1); throws std::out_of_range if absent.
  [[nodiscard]] NodeId node_by_name(std::string_view name) const;

  /// All nodes with the given role.
  [[nodiscard]] std::vector<NodeId> nodes_with_role(Role r) const;

  /// The address of the shared storage: equal for copies of one value
  /// until one of them is mutated, null for a topology that never held
  /// a node. Separately built topologies differ even when equal.
  [[nodiscard]] const void* identity() const noexcept { return storage_.get(); }

 private:
  /// The name table holds node ids only, no second copy of a name: an
  /// open-addressed, linearly probed table of 32-bit ids keyed by
  /// std::hash<std::string_view> of nodes[id].name, a power-of-two size
  /// at most half full (kNoNode marks a free slot): 4 bytes per slot, so
  /// 8-16 B per node. reserve() sizes it for the fleet up front; add_node
  /// doubles it when a node would push it past half full. A copy-on-write
  /// clone copies it verbatim, ids and all.
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  struct Storage {
    std::vector<Node> nodes;
    std::vector<Link> links;
    std::vector<std::vector<NodeId>> adjacency;
    std::vector<std::uint32_t> name_slots;  // node ids by name hash
  };

  [[nodiscard]] const Storage& data() const noexcept {
    return storage_ ? *storage_ : empty_storage();
  }
  [[nodiscard]] static const Storage& empty_storage() noexcept;
  /// The storage to mutate: created when absent, cloned when shared.
  [[nodiscard]] Storage& mutable_data();
  /// The slot holding `name`'s id, or else the free slot where it would
  /// go. Requires a non-empty, not full name table.
  [[nodiscard]] static std::size_t name_slot(const Storage& s, std::string_view name);
  /// Re-lay the name table over `slots` slots (a power of two).
  static void rehash_names(Storage& s, std::size_t slots);

  std::shared_ptr<Storage> storage_;
};

}  // namespace divsec::net
