"""Golden resolutions: the SHA-256 of the decomposition_to_json bytes of each
phase under four ResolveParams, and the exception type and message of the
phases that resolve() rejects.  Any change to how charts, cuts, bands or shears
are built shows here as a changed digest."""

import hashlib
import json
from fractions import Fraction

import pytest

from newton_sublevel import ResolveParams, decomposition_to_json, parse_expression, resolve

PARAMS = {
    "default": ResolveParams(),
    "narrow": ResolveParams(xi=Fraction(1, 16), delta=Fraction(1, 2), x_max=Fraction(1, 8)),
    "eta": ResolveParams(eta=Fraction(1, 4)),
    "wide": ResolveParams(eta=Fraction(1, 3), xi=Fraction(1, 4), delta=Fraction(1, 8),
                          x_max=Fraction(1, 2)),
}

# The catalog and the two extra phases, seven members of the benchmark's
# two-branch family plus (y - x)*(y + x) + x^3, five phases whose edges carry
# two or three positive roots (so the strips are stacked and each strip's
# half-width is bounded by the gaps to its neighbours), then five phases that
# fail: the band-range and certification failures and the irrational edge
# root.  Each of the five stacked phases has a strip at a simple root, so a
# change to how such a strip is charted will re-record them.
# Each value is the hex digest of json.dumps(decomposition_to_json(dec),
# sort_keys=True), or the (type, message) of the exception.
GOLDEN = {
    ("x^2 + y^2", "default"):
        "8b59e843fabbb446a7bd1cd1b051a18f5275712355709930a4ef76f475db0e41",
    ("x^2 + y^2", "narrow"):
        "4e8fde49f4bf14ad3df9042ddcc9d1cd3160918c62713dd1254e2b0bc184c99b",
    ("x^2 + y^2", "eta"):
        "63247be72aaa282bdd3c47f1f4006db01ab8431f8b58c0140cb4f7fda34c2d0b",
    ("x^2 + y^2", "wide"):
        "f3f160c7c38c52b89abb2d0ea27689bf51e066a118310110b7335b6f9ceafe17",
    ("x*y", "default"):
        "ee93d8658994a4e6c8c82c73443c152620b2caaacecec3d3041b2806919fbcf2",
    ("x*y", "narrow"):
        "90e387e600f9490b40302017b103ed3dd5b05ea0992a6afa188361a66bf0cbc6",
    ("x*y", "eta"):
        "b4b1ffae5b35c882ab2d7cef357ce9e982ee1a04d8fb20208001235fe6597831",
    ("x*y", "wide"):
        "41cb990a9575fc81899e5009267b4ce3967234155449428744cf0a90ec042bf0",
    ("x^2 - y^2", "default"):
        "634be4e7295b3370cee1d24eb3d9ee0d18583e101e17b855fd294f41d6a8f40e",
    ("x^2 - y^2", "narrow"):
        "b7a24f94a07e46e3a9b099d80504d5a07a94850498c542c49f975ffb7e5879b0",
    ("x^2 - y^2", "eta"):
        "95039bdac091a8da293b9a48715c6faf0a42ea224cbd954639f78f96d414d6ac",
    ("x^2 - y^2", "wide"):
        "85ab6755dd693f943af223cc4286084e80b508532a61195a01b445b4ec237860",
    ("(y - x^2)^2", "default"):
        "03b62bdb767f6c60a489d90a3ad1f11072358fc1a4602dfbe774e326803719a2",
    ("(y - x^2)^2", "narrow"):
        "4b4804fe4d8d613039939fe743833c35a3ceddad1587a1cea210c369a03ec33a",
    ("(y - x^2)^2", "eta"):
        "9cc70fa6237958558f6c25d647111b851426aa7d7e97b6a0537cc1ce34bf173f",
    ("(y - x^2)^2", "wide"):
        "59f06213f061ecc9cd8b83a21961797ecf6069b38d8c1050aab7a30a62cf6a39",
    ("x^2*y^2 + x^5", "default"):
        "c553b42d2f6e52c395a9ff2b5fc9a843e07d98a5886f0c928be0425597889623",
    ("x^2*y^2 + x^5", "narrow"):
        "2d7a054f3e2a09b424326cd37a4b83ceb3a11e8d8f359a1d4c022871a7bd8047",
    ("x^2*y^2 + x^5", "eta"):
        "eaf398029f175c4e7546457f1a6ac2319252d9f21a563e398d985616790e8281",
    ("x^2*y^2 + x^5", "wide"):
        "0cec40455da3cf52f59334c98d28013e866209269e44081638d4860eb2dadc58",
    ("y^2 - x^3", "default"):
        "790e0c92fc2528be74471f657e5b82e4dece4642bb78497d6a7bdc98917a7405",
    ("y^2 - x^3", "narrow"):
        "d30d4497c70f0ed8f89581f79923083a453274f29c2db8abe77b0366d52d895d",
    ("y^2 - x^3", "eta"):
        "eff93d8230daf54cde063dd1f6657116e201d316ac03df9f8ca8942d287a7882",
    ("y^2 - x^3", "wide"):
        "f21ae009ff9850cff15e5866a24567360b8ec73e1ba95aa0cc895a4dc4163da9",
    ("(y - x^2 - x^3)^2 - x^9", "default"):
        "c1f3049db710701902362ce325b3dfd017b032a545f033b194b288b596b9231b",
    ("(y - x^2 - x^3)^2 - x^9", "narrow"):
        "44200ea9dbef84586f6b982001947eead0f7d63f35b539789d07612a2c9dd2a6",
    ("(y - x^2 - x^3)^2 - x^9", "eta"):
        "9cf95f3d850db6a7c57587909d342fb85b50e4bbc2a6ecff281624096b6dd31a",
    ("(y - x^2 - x^3)^2 - x^9", "wide"):
        "c0dc044b5b8188d545798e378ea9eb17ffc97071c37cb501395a63fd6ed1f2bc",
    ("y^2 - 2*x^2*y + x^4 - x^7", "default"):
        "6f3fa46262a2d57438fc0b4648a0c40b329ef2c5fc344504dfeaf9dec25388ee",
    ("y^2 - 2*x^2*y + x^4 - x^7", "narrow"):
        "98617f1b5b6b5b07fdec73b77750c166a7e807e5fc55da8aa37c0cbc6068332e",
    ("y^2 - 2*x^2*y + x^4 - x^7", "eta"):
        "e9cd6aebbb98acf25479749904779f4582683af05bead8911e940830f3e23e08",
    ("y^2 - 2*x^2*y + x^4 - x^7", "wide"):
        "05c591726534b86ae8565ff2a220ee7d830bddfef1e88cc4cfed818ca2368b69",
    ("(y + 2*x)*(y + 3*x^2) + 2*x^4", "default"):
        "ba60886bbd9d80409980ea7451b4883fdb4989c124ab3cd0cade2b4d7d686728",
    ("(y + 2*x)*(y + 3*x^2) + 2*x^4", "narrow"):
        "f41abcb22f58922903488eed6b24059c4088e29c77dd38defe29d8710ecf74ff",
    ("(y + 2*x)*(y + 3*x^2) + 2*x^4", "eta"):
        "34c6bec0829668f9b4422eac32d2bc6c73c9af485140cf0996b2a8687313a6f3",
    ("(y + 2*x)*(y + 3*x^2) + 2*x^4", "wide"):
        "5599ba9a0b50b86d773d1eabda7906bd8e56cd58ad343cee714d0b5c6f4b6a9f",
    ("(y + 3*x)*(y - 1*x)^2 + 1*x^4", "default"):
        "ac3be9935bf1b968eb6a41bd12e156bfcbe0d4ce6b8457609f238e2ed1df64f8",
    ("(y + 3*x)*(y - 1*x)^2 + 1*x^4", "narrow"):
        "cbc13a9f7c4170fe98322b79ad018ed72c356377d05f0adbc10b687c86ba339b",
    ("(y + 3*x)*(y - 1*x)^2 + 1*x^4", "eta"):
        "452f7abba23495c855eb63eb7ab3805f5191fa959473036dbd8a637ac62a59bf",
    ("(y + 3*x)*(y - 1*x)^2 + 1*x^4", "wide"):
        "985e6aeb6be9644e03b537082f69487e7db4834cfb9a5496ec9d6b3c4ee236fd",
    ("(y - 2*x)^2*(y + 3*x)^2 + 1*x^5", "default"):
        "79836ced60b2c76d0112df1f89ac7751b832eca0a7edab231c9e27fede1c58a0",
    ("(y - 2*x)^2*(y + 3*x)^2 + 1*x^5", "narrow"):
        "87800d352ab252c432a001466edac32a3d4a61eff474e2495b80fbcb0d75cc74",
    ("(y - 2*x)^2*(y + 3*x)^2 + 1*x^5", "eta"):
        "0a88b27cfe4177345bb89da9c52c53f15db7d1e13f2b34d2f867b9a8b8e29b80",
    ("(y - 2*x)^2*(y + 3*x)^2 + 1*x^5", "wide"):
        "10a0a6aa1298557d1cfe9983f22cc035a707f889bbcb8895e96452fafaa79415",
    ("(y - 2*x)^2*(y + 3*x^2) + 1*x^5", "default"):
        "353e72852878780c0edc089a3a3e4ed2531611e7195c2b14ee16a9f1c9b5659d",
    ("(y - 2*x)^2*(y + 3*x^2) + 1*x^5", "narrow"):
        "123a8db21fd9e5632f0fc492f36dda5f69444e2cc3cda6127d843ae1b993c467",
    ("(y - 2*x)^2*(y + 3*x^2) + 1*x^5", "eta"):
        "0c55ee6d06b6bd2485c88f7f17149c3d800a154b779cad4289c34283ec73aab7",
    ("(y - 2*x)^2*(y + 3*x^2) + 1*x^5", "wide"):
        "858eb601966a72bdcdc3adf189edc36b510cb17e19f8169ac22ffb2a5be0142a",
    ("(y - 1*x)^2*(y + 2*x^3) + 1*x^6", "default"):
        "2cad76b1148c885c704dbfb79f1c319ff38185870040e30c3e157c5035cf5fb7",
    ("(y - 1*x)^2*(y + 2*x^3) + 1*x^6", "narrow"):
        "64a9e4ad1e63defd8169b905368fa001a60eab59077ce9876fb7f3c8e76c56a2",
    ("(y - 1*x)^2*(y + 2*x^3) + 1*x^6", "eta"):
        "aee3deed53eb0911166b3ebaf337bafb3e7552727ba9cb749ee724d04b7e4c42",
    ("(y - 1*x)^2*(y + 2*x^3) + 1*x^6", "wide"):
        "a319698905e20512eed0d921524d9b673a243deb22aa050b32ea8791570bf4be",
    ("(y - 1*x^2)^2*(y + 2*x^2) + 2*x^7", "default"):
        "6c9b394792db27a471232695d6f4be19d31f43e95e49e876428343d28150e6f9",
    ("(y - 1*x^2)^2*(y + 2*x^2) + 2*x^7", "narrow"):
        "30552da0d0a8f5d17fba48df66c190240e82e35d72ac7782fe338202e4aedce1",
    ("(y - 1*x^2)^2*(y + 2*x^2) + 2*x^7", "eta"):
        "f5b506f15496b2c4c6202911f6484915d2c5f824fb03f2a88c543cba03b8eb9f",
    ("(y - 1*x^2)^2*(y + 2*x^2) + 2*x^7", "wide"):
        "9a042b392094585c78090d879793087eaa1b63ae1a53a135fa9afeb5b080557f",
    ("(y + 2*x)*(y - 3*x^3)^2 + 1*x^8", "default"):
        "9dc91968c510cd4e9bf3d8dbf0ee68843bc1aa05891948a380de91b4804916e2",
    ("(y + 2*x)*(y - 3*x^3)^2 + 1*x^8", "narrow"):
        "7bc7da46a2168ad8ad1f10d51ab2dd7b19715f7ecf234ccfc5db60483e9fd9b6",
    ("(y + 2*x)*(y - 3*x^3)^2 + 1*x^8", "eta"):
        "d57e50535ee34d60506421b20ee1fa493fcfe592ee5e1c762c05b9472f852576",
    ("(y + 2*x)*(y - 3*x^3)^2 + 1*x^8", "wide"):
        "4c388a80e16c74fbb5de4eb0a9d0c7bfbb786a759eede7a71b5db653679df08d",
    ("(y - x)*(y + x) + x^3", "default"):
        "3f72f0a63b5c0ffa8c284e60e27d423fe7b2074d03b7b8970c04b9d1fc17cacf",
    ("(y - x)*(y + x) + x^3", "narrow"):
        "60171785ed5d8e4df1f274bde239c9f724a621189bece4482f7395d9a48ac043",
    ("(y - x)*(y + x) + x^3", "eta"):
        "034ce5834c08646e3c821853f9ef930c5ed0ca2d14fa2ab13f2abb5c504a7a0d",
    ("(y - x)*(y + x) + x^3", "wide"):
        "fb07171f47b885759c5a0d7d7790df09bba03a84ff7964964d02abb2f7a96c9d",
    ("(y - x)*(y - 2*x)*(y - 3*x) + x^4", "default"):
        "741dc075df8e341efe89ae41e1a2089cc627dc171f04d660a3bf24d9adcd96cb",
    ("(y - x)*(y - 2*x)*(y - 3*x) + x^4", "narrow"):
        "3ca19e9534fca23055d32f1b8463cd018d143708eb7e20997d7f2589a79fe63f",
    ("(y - x)*(y - 2*x)*(y - 3*x) + x^4", "eta"):
        "be92744f79244ebfc3140d1983a16ef721342330bf5e7f6ff7ee68d10175c81b",
    ("(y - x)*(y - 2*x)*(y - 3*x) + x^4", "wide"):
        "0aa3e256e6e0db7630c3050a5430cf807ef1adeccf3358a13da68ab8c051636a",
    ("(y - x^2)*(y - 2*x^2) + x^5", "default"):
        "bcd40856633019e6a08ea37f0b9509ad87118aad1a31ee07d1ffa2b8b98677fc",
    ("(y - x^2)*(y - 2*x^2) + x^5", "narrow"):
        "117d943eb7203c6b006d52552b78186804345846dfcac3e2559d0eace3c11572",
    ("(y - x^2)*(y - 2*x^2) + x^5", "eta"):
        "d02a6779bca2633a3ad0d6f603bc0b3ff988de6d21080c5d824fe2bb09ca6d81",
    ("(y - x^2)*(y - 2*x^2) + x^5", "wide"):
        "9e52d115072bd5252f351cd823c8df4d20cb22d404c5f3b0a34275ad20a85c3c",
    ("(y - x)*(y - 5/4*x)*(y + x) + x^5", "default"):
        "a4042b51a72417a69830c29f7e7a5df3fb9d6aae1768807f3af2b716d31c5919",
    ("(y - x)*(y - 5/4*x)*(y + x) + x^5", "narrow"):
        "794e30f842bcdb41f9be1e52f4c18fc095c615d89b50afb3a1687b92c565aa7f",
    ("(y - x)*(y - 5/4*x)*(y + x) + x^5", "eta"):
        "f6f28ef3dd46455aeaa1e8a398c4921ba3cbb676a6afcb15acb07bdbb8e3b7b4",
    ("(y - x)*(y - 5/4*x)*(y + x) + x^5", "wide"):
        "a2c731f3a5e912a422bed3122c07774ff3ff6ff6efb30722e9189755e717aecb",
    ("(y - x)^2*(y - 2*x) + x^4", "default"):
        "4fafbb8189e78aff52d2e4003605d409ef27b104c28109c01ef240994462d205",
    ("(y - x)^2*(y - 2*x) + x^4", "narrow"):
        "7c7b31bda05da17fd60f34e2be9e3ecadb2f60c13cfce7159fc4aef7460201b9",
    ("(y - x)^2*(y - 2*x) + x^4", "eta"):
        "b13109832b024d6a5c11054a9faa33dd8dce9edf9a293c7f7e7a2296c7e2d009",
    ("(y - x)^2*(y - 2*x) + x^4", "wide"):
        "2e5fe7574f86300227a36febf08b6727ddecf227d3dccb465d6444af28c79559",
    ("(y - x)*(y - 2*x)^2 + x^5", "default"):
        "c7bfd8a69596b25af922bedde15ff3d2673ccdfb9f6dab5e7dd554f68c86aebd",
    ("(y - x)*(y - 2*x)^2 + x^5", "narrow"):
        "4d776d656e2e169769aeb433d74ca63e014de6a2ecf6d0423094bc2e37f49adf",
    ("(y - x)*(y - 2*x)^2 + x^5", "eta"):
        "df2e3c455677f92113a2642ef37ab95fc17e768ba6e84b798c758011bc434046",
    ("(y - x)*(y - 2*x)^2 + x^5", "wide"):
        "d58ac7b735423d9d624229399a1a20de478ef713d6cb535862200d25a3f62f8f",
    ("(y - 3*x^3)^3 + x^9", "default"):
        ("RuntimeError",
         "edge band [17/8, 384] is not bounded away from zero (range [-447955/4096, 226535226139/4096])"),
    ("(y - 3*x^3)^3 + x^9", "narrow"):
        ("RuntimeError",
         "edge band [33/16, 192] is not bounded away from zero (range [-111191/16384, 110612921755/16384])"),
    ("(y - 3*x^3)^3 + x^9", "eta"):
        ("RuntimeError",
         "edge band [17/8, 384] is not bounded away from zero (range [-447955/4096, 226535226139/4096])"),
    ("(y - 3*x^3)^3 + x^9", "wide"):
        ("RuntimeError",
         "edge band [9/4, 768] is not bounded away from zero (range [-1780955/4096, 1833769211419/4096])"),
    ("(y - 2*x)^2*(y + x^2)^2 + x^7", "default"):
        ("RuntimeError",
         "edge band [15/4096, 15/8] is not bounded away from zero (range [-7384791615/281474976710656, 134228423/134217728])"),
    ("(y - 2*x)^2*(y + x^2)^2 + x^7", "narrow"):
        "b0c9b9bc766effb5e4d56b016b7941b24e554b05e81de458fe8b070df717b9f1",
    ("(y - 2*x)^2*(y + x^2)^2 + x^7", "eta"):
        ("RuntimeError",
         "edge band [15/4096, 15/8] is not bounded away from zero (range [-7384791615/281474976710656, 134228423/134217728])"),
    ("(y - 2*x)^2*(y + x^2)^2 + x^7", "wide"):
        ("RuntimeError",
         "edge band [7/4096, 7/4] is not bounded away from zero (range [-16094967455/281474976710656, 16778371/16777216])"),
    ("(y + x^2)^2*(y - x^2)^2 + 2*x^9", "default"):
        ("RuntimeError",
         "chart certification failed after 20 retries (mode C, monomial (Fraction(1, 1), Fraction(8, 1), 0))"),
    ("(y + x^2)^2*(y - x^2)^2 + 2*x^9", "narrow"):
        "989457e2d29cde2df0b8fa9f337fcfac6614165902982d6b37d83221fc3fe83a",
    ("(y + x^2)^2*(y - x^2)^2 + 2*x^9", "eta"):
        ("RuntimeError",
         "chart certification failed after 20 retries (mode C, monomial (Fraction(1, 1), Fraction(8, 1), 0))"),
    ("(y + x^2)^2*(y - x^2)^2 + 2*x^9", "wide"):
        ("RuntimeError",
         "chart certification failed after 20 retries (mode B, monomial (Fraction(268476417, 4096), Fraction(9, 1), 0))"),
    ("(y - x)^2*(y + x^3)^2 + 2*x^9", "default"):
        ("RuntimeError",
         "chart certification failed after 20 retries (mode C, monomial (Fraction(1, 1), Fraction(8, 1), 0))"),
    ("(y - x)^2*(y + x^3)^2 + 2*x^9", "narrow"):
        "e96a24da6bd9ae7dbb33e92eba663c1b3da6fdf96c0b4f4b13b4cec556d7482c",
    ("(y - x)^2*(y + x^3)^2 + 2*x^9", "eta"):
        ("RuntimeError",
         "chart certification failed after 20 retries (mode C, monomial (Fraction(1, 1), Fraction(8, 1), 0))"),
    ("(y - x)^2*(y + x^3)^2 + 2*x^9", "wide"):
        ("RuntimeError",
         "edge band [3/4096, 3/4] is not bounded away from zero (range [-654532527/281474976710656, 65539/1048576])"),
    ("(y^2 - 2*x^2)^2 + x^9", "default"):
        ("ValueError",
         "irrational edge root: outside the model (needs an algebraic shear)"),
    ("(y^2 - 2*x^2)^2 + x^9", "narrow"):
        ("ValueError",
         "irrational edge root: outside the model (needs an algebraic shear)"),
    ("(y^2 - 2*x^2)^2 + x^9", "eta"):
        ("ValueError",
         "irrational edge root: outside the model (needs an algebraic shear)"),
    ("(y^2 - 2*x^2)^2 + x^9", "wide"):
        ("ValueError",
         "irrational edge root: outside the model (needs an algebraic shear)"),
}


@pytest.mark.parametrize("expr,params", list(GOLDEN), ids=[f"{e}|{k}" for e, k in GOLDEN])
def test_resolution_golden(expr, params):
    p = parse_expression(expr).poly
    try:
        dec = resolve(p, PARAMS[params])
    except (ValueError, RuntimeError) as ex:
        got = (type(ex).__name__, str(ex))
    else:
        got = hashlib.sha256(
            json.dumps(decomposition_to_json(dec), sort_keys=True).encode()).hexdigest()
    assert got == GOLDEN[(expr, params)]
