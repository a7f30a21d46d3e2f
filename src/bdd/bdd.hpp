// Bdd: a reference-counted RAII handle to a BDD function.
//
// A Bdd keeps its root node (and hence its whole cone) alive across garbage
// collections. All Boolean operators allocate through the owning manager.
#pragma once

#include <utility>
#include <vector>

#include "bdd/manager.hpp"
#include "bdd/types.hpp"
#include "support/assert.hpp"

namespace sliq::bdd {

class Bdd {
 public:
  /// Empty handle; usable only as an assignment target.
  Bdd() = default;

  Bdd(BddManager* mgr, Edge e) : mgr_(mgr), e_(e) {
    SLIQ_ASSERT(mgr_ != nullptr);
    mgr_->ref(e_);
  }

  Bdd(const Bdd& other) : mgr_(other.mgr_), e_(other.e_) {
    if (mgr_) mgr_->ref(e_);
  }

  Bdd(Bdd&& other) noexcept : mgr_(other.mgr_), e_(other.e_) {
    other.mgr_ = nullptr;
  }

  Bdd& operator=(const Bdd& other) {
    if (this != &other) {
      if (other.mgr_) other.mgr_->ref(other.e_);
      release();
      mgr_ = other.mgr_;
      e_ = other.e_;
    }
    return *this;
  }

  Bdd& operator=(Bdd&& other) noexcept {
    if (this != &other) {
      release();
      mgr_ = other.mgr_;
      e_ = other.e_;
      other.mgr_ = nullptr;
    }
    return *this;
  }

  ~Bdd() { release(); }

  bool valid() const { return mgr_ != nullptr; }
  BddManager* manager() const { return mgr_; }
  Edge edge() const { return e_; }

  bool isZero() const { return e_ == kFalseEdge; }
  bool isOne() const { return e_ == kTrueEdge; }
  bool isConstantFn() const { return isConstant(e_); }

  friend bool operator==(const Bdd& a, const Bdd& b) {
    return a.mgr_ == b.mgr_ && a.e_ == b.e_;
  }
  friend bool operator!=(const Bdd& a, const Bdd& b) { return !(a == b); }

  Bdd operator~() const { return Bdd(mgr_, !e_); }
  Bdd operator&(const Bdd& rhs) const {
    return Bdd(mgr_, mgr_->andE(e_, rhs.e_));
  }
  Bdd operator|(const Bdd& rhs) const {
    return Bdd(mgr_, mgr_->orE(e_, rhs.e_));
  }
  Bdd operator^(const Bdd& rhs) const {
    return Bdd(mgr_, mgr_->xorE(e_, rhs.e_));
  }
  Bdd& operator&=(const Bdd& rhs) { return *this = *this & rhs; }
  Bdd& operator|=(const Bdd& rhs) { return *this = *this | rhs; }
  Bdd& operator^=(const Bdd& rhs) { return *this = *this ^ rhs; }

  /// ITE with this as the selector.
  Bdd ite(const Bdd& g, const Bdd& h) const {
    return Bdd(mgr_, mgr_->ite(e_, g.e_, h.e_));
  }

  Bdd cofactor(unsigned var, bool value) const {
    return Bdd(mgr_, mgr_->restrict1(e_, var, value));
  }
  Bdd cofactorCube(const std::vector<Literal>& cube) const {
    Bdd result = *this;
    for (const Literal& lit : cube)
      result = result.cofactor(lit.var, lit.positive);
    return result;
  }

  bool eval(const std::vector<bool>& assignment) const {
    return mgr_->evalPoint(e_, assignment);
  }

  std::size_t nodeCount() const { return mgr_->nodeCount(e_); }

 private:
  void release() {
    if (mgr_) {
      mgr_->deref(e_);
      mgr_ = nullptr;
    }
  }

  BddManager* mgr_ = nullptr;
  Edge e_ = kFalseEdge;
};

/// Convenience: projection-function handle for variable v.
inline Bdd makeVar(BddManager& mgr, unsigned v) {
  return Bdd(&mgr, mgr.varEdge(v));
}

}  // namespace sliq::bdd
