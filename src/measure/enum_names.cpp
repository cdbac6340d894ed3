#include "measure/enum_names.hpp"

#include <stdexcept>
#include <string>

namespace wheels::measure::names {

std::string_view to_name(TestType v) { return test_type_name(v); }
std::string_view to_name(AppKind v) { return app_kind_name(v); }
std::string_view to_name(radio::Carrier v) { return radio::carrier_name(v); }
std::string_view to_name(radio::Technology v) {
  return radio::technology_name(v);
}
std::string_view to_name(geo::RegionType v) { return geo::region_name(v); }
std::string_view to_name(geo::Timezone v) { return geo::timezone_name(v); }
std::string_view to_name(net::ServerKind v) {
  return net::server_kind_name(v);
}
std::string_view to_name(radio::Direction v) {
  return radio::direction_name(v);
}
std::string_view to_name(ran::HandoverType v) {
  return ran::handover_type_name(v);
}

namespace {

template <typename E, std::size_t N>
E parse_enum(std::string_view text, const std::array<E, N>& all,
             const char* what) {
  for (const E e : all) {
    if (to_name(e) == text) return e;
  }
  throw std::runtime_error{std::string{"unknown "} + what + " name '" +
                           std::string{text} + "'"};
}

}  // namespace

TestType parse_test_type(std::string_view text) {
  return parse_enum(text, kAllTestTypes, "test type");
}
AppKind parse_app_kind(std::string_view text) {
  return parse_enum(text, kAllAppKinds, "app kind");
}
radio::Carrier parse_carrier(std::string_view text) {
  return parse_enum(text, radio::kAllCarriers, "carrier");
}
radio::Technology parse_technology(std::string_view text) {
  return parse_enum(text, radio::kAllTechnologies, "technology");
}
geo::RegionType parse_region(std::string_view text) {
  return parse_enum(text, kAllRegions, "region");
}
geo::Timezone parse_timezone(std::string_view text) {
  return parse_enum(text, kAllTimezones, "timezone");
}
net::ServerKind parse_server_kind(std::string_view text) {
  return parse_enum(text, kAllServerKinds, "server kind");
}
radio::Direction parse_direction(std::string_view text) {
  return parse_enum(text, kAllDirections, "direction");
}
ran::HandoverType parse_handover_type(std::string_view text) {
  return parse_enum(text, kAllHandoverTypes, "handover type");
}

void parse(std::string_view t, TestType& out) { out = parse_test_type(t); }
void parse(std::string_view t, AppKind& out) { out = parse_app_kind(t); }
void parse(std::string_view t, radio::Carrier& out) { out = parse_carrier(t); }
void parse(std::string_view t, radio::Technology& out) {
  out = parse_technology(t);
}
void parse(std::string_view t, geo::RegionType& out) { out = parse_region(t); }
void parse(std::string_view t, geo::Timezone& out) { out = parse_timezone(t); }
void parse(std::string_view t, net::ServerKind& out) {
  out = parse_server_kind(t);
}
void parse(std::string_view t, radio::Direction& out) {
  out = parse_direction(t);
}
void parse(std::string_view t, ran::HandoverType& out) {
  out = parse_handover_type(t);
}

}  // namespace wheels::measure::names
