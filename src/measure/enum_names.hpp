// Centralised bidirectional enum <-> name mapping for every enum that
// appears in the released CSV dataset.
//
// Each module still owns its canonical `*_name()` function; the tables here
// are *built from* those functions (one entry per enumerator), so the CSV
// writers, the read-back parsers and the report binaries all share a single
// source of truth and cannot drift. tests/test_csv_export.cpp parses every
// printed name back through these tables.
#pragma once

#include <array>
#include <string_view>

#include "geo/route.hpp"
#include "geo/timezone.hpp"
#include "measure/records.hpp"
#include "net/server.hpp"
#include "radio/channel.hpp"
#include "radio/technology.hpp"
#include "ran/handover.hpp"

namespace wheels::measure::names {

// Every enumerator of the enums that lack a module-level kAll* array
// (radio::kAllCarriers / kAllTechnologies already exist).
inline constexpr std::array<TestType, 7> kAllTestTypes{
    TestType::DownlinkBulk, TestType::UplinkBulk, TestType::Rtt,
    TestType::ArApp,        TestType::CavApp,     TestType::Video,
    TestType::Gaming};
inline constexpr std::array<AppKind, 4> kAllAppKinds{
    AppKind::Ar, AppKind::Cav, AppKind::Video, AppKind::Gaming};
inline constexpr std::array<geo::RegionType, 3> kAllRegions{
    geo::RegionType::Urban, geo::RegionType::Suburban,
    geo::RegionType::Highway};
inline constexpr std::array<geo::Timezone, 4> kAllTimezones{
    geo::Timezone::Pacific, geo::Timezone::Mountain, geo::Timezone::Central,
    geo::Timezone::Eastern};
inline constexpr std::array<net::ServerKind, 2> kAllServerKinds{
    net::ServerKind::Cloud, net::ServerKind::Edge};
inline constexpr std::array<radio::Direction, 2> kAllDirections{
    radio::Direction::Downlink, radio::Direction::Uplink};
inline constexpr std::array<ran::HandoverType, 4> kAllHandoverTypes{
    ran::HandoverType::FourToFour, ran::HandoverType::FourToFive,
    ran::HandoverType::FiveToFour, ran::HandoverType::FiveToFive};

/// One overload set over all dataset enums, delegating to the owning
/// module's canonical name function.
std::string_view to_name(TestType v);
std::string_view to_name(AppKind v);
std::string_view to_name(radio::Carrier v);
std::string_view to_name(radio::Technology v);
std::string_view to_name(geo::RegionType v);
std::string_view to_name(geo::Timezone v);
std::string_view to_name(net::ServerKind v);
std::string_view to_name(radio::Direction v);
std::string_view to_name(ran::HandoverType v);

/// Exact-match reverse lookups over every enumerator's printed name.
/// Throw std::runtime_error naming the offending text on unknown input.
TestType parse_test_type(std::string_view text);
AppKind parse_app_kind(std::string_view text);
radio::Carrier parse_carrier(std::string_view text);
radio::Technology parse_technology(std::string_view text);
geo::RegionType parse_region(std::string_view text);
geo::Timezone parse_timezone(std::string_view text);
net::ServerKind parse_server_kind(std::string_view text);
radio::Direction parse_direction(std::string_view text);
ran::HandoverType parse_handover_type(std::string_view text);

/// The same lookups chosen by the type of `out`, for generic code (the
/// bundle schema in measure/csv_schema.hpp).
void parse(std::string_view text, TestType& out);
void parse(std::string_view text, AppKind& out);
void parse(std::string_view text, radio::Carrier& out);
void parse(std::string_view text, radio::Technology& out);
void parse(std::string_view text, geo::RegionType& out);
void parse(std::string_view text, geo::Timezone& out);
void parse(std::string_view text, net::ServerKind& out);
void parse(std::string_view text, radio::Direction& out);
void parse(std::string_view text, ran::HandoverType& out);

}  // namespace wheels::measure::names
